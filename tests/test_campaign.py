"""Tests for the campaign subsystem (spec, cache, runner, CLI).

The runner-semantics tests drive :class:`CampaignRunner` with tiny
module-level fake executors (picklable, so they also run in real worker
processes); the end-to-end tests run real simulations on the smallest
Table-I torrents under the ``smoke`` scenario.
"""

import json
import os
import random
import time

import pytest

from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    SCENARIOS,
    ShardCache,
    ShardSpec,
    derive_shard_seed,
    execute_shard,
    expand_spec,
    manifest_fingerprint,
    parse_torrent_ids,
    shard_cache_key,
)
from repro.cli import main as cli_main

SMOKE = {"scenarios": ("smoke",)}


def smoke_spec(torrent_ids, **overrides):
    kwargs = {"name": "test", "torrent_ids": tuple(torrent_ids)}
    kwargs.update(SMOKE)
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


# ---------------------------------------------------------------------------
# Fake executors (module level: picklable into real worker processes).
# ---------------------------------------------------------------------------

def fake_ok(payload):
    return {
        "status": "ok",
        "cache_hit": False,
        "trace_fingerprint": "fp-%s" % payload["seed"],
    }


def fake_fail(payload):
    raise ValueError("shard %d is cursed" % payload["torrent_id"])


def fake_sleep(payload):
    time.sleep(5.0)
    return {"status": "ok", "cache_hit": False}


def fake_crash_once(payload):
    marker = os.environ["REPRO_TEST_CRASH_MARKER"]
    if not os.path.exists(marker):
        with open(marker, "w") as handle:
            handle.write("crashed")
        os._exit(1)  # hard kill: breaks the whole process pool
    return fake_ok(payload)


# ---------------------------------------------------------------------------
# Spec expansion and seed derivation
# ---------------------------------------------------------------------------

class TestSpecExpansion:
    def test_default_campaign_is_the_paper_matrix(self):
        shards = expand_spec(CampaignSpec())
        assert len(shards) == 26
        assert [s.torrent_id for s in shards] == list(range(1, 27))
        assert shards[0].shard_id == "t01-paper-r0"
        assert shards[-1].shard_id == "t26-paper-r0"

    def test_cross_product_count_and_order(self):
        spec = CampaignSpec(
            torrent_ids=(2, 3), scenarios=("paper", "smoke"), replicates=2
        )
        shards = expand_spec(spec)
        assert len(shards) == 2 * 2 * 2
        # torrent-major, then scenario position, then replicate.
        assert [s.shard_id for s in shards] == [
            "t02-paper-r0", "t02-paper-r1", "t02-smoke-r0", "t02-smoke-r1",
            "t03-paper-r0", "t03-paper-r1", "t03-smoke-r0", "t03-smoke-r1",
        ]

    def test_filter_glob_and_substring(self):
        spec = CampaignSpec(torrent_ids=(2, 3, 13), scenarios=("paper", "smoke"))
        assert [
            s.shard_id for s in expand_spec(spec, shard_filter="t03-*")
        ] == ["t03-paper-r0", "t03-smoke-r0"]
        assert [
            s.shard_id for s in expand_spec(spec, shard_filter="smoke")
        ] == ["t02-smoke-r0", "t03-smoke-r0", "t13-smoke-r0"]

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError):
            expand_spec(CampaignSpec(scenarios=("nonsense",)))

    def test_spec_duration_beats_variant_duration(self):
        assert SCENARIOS["smoke"].options.duration == 240.0
        shards = expand_spec(smoke_spec((2,), duration=99.0))
        assert shards[0].options.duration == 99.0
        shards = expand_spec(smoke_spec((2,)))
        assert shards[0].options.duration == 240.0

    def test_payload_roundtrip(self):
        shard = expand_spec(smoke_spec((7,)))[0]
        assert ShardSpec.from_payload(shard.as_payload()) == shard

    def test_parse_torrent_ids(self):
        assert parse_torrent_ids("all") == tuple(range(1, 27))
        assert parse_torrent_ids("1,2,7-9") == (1, 2, 7, 8, 9)
        assert parse_torrent_ids("3,3,3") == (3,)
        with pytest.raises(ValueError):
            parse_torrent_ids("27")


class TestSeedDerivation:
    def test_paper_replicate0_preserves_historical_stream(self):
        for torrent_id in (1, 8, 26):
            assert derive_shard_seed(3, torrent_id, "paper", 0) == 3 + 37 * torrent_id

    def test_other_coordinates_draw_independent_streams(self):
        seeds = {
            derive_shard_seed(3, tid, scenario, replicate)
            for tid in range(1, 27)
            for scenario in ("paper", "smoke", "other")
            for replicate in range(3)
        }
        assert len(seeds) == 26 * 3 * 3  # no collisions anywhere
        # And the hashed streams are nowhere near the historical ones.
        assert derive_shard_seed(3, 5, "smoke", 0) != derive_shard_seed(3, 5, "paper", 0)
        assert derive_shard_seed(3, 5, "paper", 1) != derive_shard_seed(3, 5, "paper", 0)

    def test_derivation_is_pure(self):
        a = derive_shard_seed(17, 9, "smoke", 2)
        b = derive_shard_seed(17, 9, "smoke", 2)
        assert a == b


# ---------------------------------------------------------------------------
# Content-addressed cache
# ---------------------------------------------------------------------------

class TestCacheKey:
    def test_same_spec_same_key(self):
        shard = expand_spec(smoke_spec((2,)))[0]
        rebuilt = ShardSpec.from_payload(shard.as_payload())
        assert shard_cache_key(shard) == shard_cache_key(rebuilt)

    def test_any_coordinate_change_changes_the_key(self):
        base = expand_spec(smoke_spec((2,)))[0]
        variants = [
            expand_spec(smoke_spec((2,), campaign_seed=4))[0],       # seed
            expand_spec(CampaignSpec(torrent_ids=(2,)))[0],          # scenario
            expand_spec(smoke_spec((3,)))[0],                        # torrent
            expand_spec(smoke_spec((2,), replicates=2))[1],          # replicate
            expand_spec(smoke_spec((2,), block_size=32768))[0],      # block size
            expand_spec(smoke_spec((2,), duration=60.0))[0],         # duration
        ]
        keys = {shard_cache_key(s) for s in [base] + variants}
        assert len(keys) == len(variants) + 1

    def test_load_requires_record_and_trace(self, tmp_path):
        cache = ShardCache(tmp_path)
        key = "a" * 64
        assert cache.load(key) is None
        # Record without its trace: incomplete, reads as a miss.
        cache.record_path(key).write_text(json.dumps({"key": key, "status": "ok"}))
        assert cache.load(key) is None
        cache.trace_path(key).write_text("")
        assert cache.load(key)["status"] == "ok"
        # A record that self-identifies with a different key is a miss.
        cache.record_path(key).write_text(json.dumps({"key": "b" * 64}))
        assert cache.load(key) is None

    def test_store_commits_trace_then_record(self, tmp_path):
        cache = ShardCache(tmp_path)
        key = "c" * 64
        tmp = cache.trace_tmp_path(key)
        tmp.write_text('{"type":"x"}\n')
        cache.store(key, {"key": key, "status": "ok"}, trace_tmp=tmp)
        assert not tmp.exists()
        assert cache.load(key)["status"] == "ok"
        assert key in cache.keys()
        cache.remove(key)
        assert cache.load(key) is None and cache.keys() == []


# ---------------------------------------------------------------------------
# Runner failure semantics (fake executors)
# ---------------------------------------------------------------------------

class TestRunnerSemantics:
    def test_retry_then_fail_bookkeeping(self):
        runner = CampaignRunner(
            smoke_spec((2, 3)), workers=1, retries=2, executor=fake_fail
        )
        result = runner.run()
        assert result.counts == {
            "shards": 2, "ok": 0, "failed": 2, "timeout": 0,
            "cache_hits": 0, "executed": 2,
        }
        for entry in result.manifest["shards"]:
            assert entry["status"] == "failed"
            assert entry["attempts"] == 3  # 1 try + 2 retries
            assert len(entry["errors"]) == 3
            assert "cursed" in entry["errors"][0]
        assert [e["shard_id"] for e in result.failed_shards()] == [
            "t02-smoke-r0", "t03-smoke-r0",
        ]

    def test_failure_does_not_abort_other_shards(self):
        def mixed(payload):
            if payload["torrent_id"] == 3:
                raise ValueError("boom")
            return fake_ok(payload)

        runner = CampaignRunner(
            smoke_spec((2, 3, 4)), workers=1, retries=0, executor=mixed
        )
        result = runner.run()
        assert result.counts["ok"] == 2 and result.counts["failed"] == 1

    def test_timeout_is_recorded_not_retried(self):
        runner = CampaignRunner(
            smoke_spec((2,)), workers=1, timeout=0.2, retries=3,
            executor=fake_sleep,
        )
        result = runner.run()
        entry = result.manifest["shards"][0]
        assert entry["status"] == "timeout"
        assert entry["attempts"] == 1  # deterministic overrun: no retry
        assert result.counts["timeout"] == 1

    def test_worker_crash_is_retried_and_pool_rebuilt(self, tmp_path, monkeypatch):
        marker = tmp_path / "crashed-once"
        monkeypatch.setenv("REPRO_TEST_CRASH_MARKER", str(marker))
        runner = CampaignRunner(
            smoke_spec((2, 3, 4)), workers=2, retries=1,
            executor=fake_crash_once,
        )
        result = runner.run()
        assert marker.exists()  # the crash actually happened
        assert result.counts["ok"] == 3 and result.counts["failed"] == 0

    def test_manifest_fingerprint_ignores_scheduling_facts(self):
        entries = [
            {"shard_id": "t02-smoke-r0", "key": "k1", "seed": 77,
             "status": "ok", "trace_fingerprint": "fp", "attempts": 1,
             "wall_seconds": 0.5, "cache_hit": False},
            {"shard_id": "t03-smoke-r0", "key": "k2", "seed": 78,
             "status": "ok", "trace_fingerprint": "fp2", "attempts": 1,
             "wall_seconds": 0.1, "cache_hit": False},
        ]
        baseline = manifest_fingerprint(entries)
        shuffled = [dict(entries[1]), dict(entries[0])]
        for entry in shuffled:
            entry.update(attempts=3, wall_seconds=9.9, cache_hit=True)
        assert manifest_fingerprint(shuffled) == baseline
        changed = [dict(entries[0]), dict(entries[1])]
        changed[0]["trace_fingerprint"] = "different"
        assert manifest_fingerprint(changed) != baseline

    def test_inline_and_pool_agree_on_fake_executor(self):
        spec = smoke_spec((2, 3, 4))
        serial = CampaignRunner(spec, workers=1, executor=fake_ok).run()
        pooled = CampaignRunner(spec, workers=2, executor=fake_ok).run()
        assert serial.fingerprint == pooled.fingerprint


# ---------------------------------------------------------------------------
# End-to-end: real simulations, caching, resume, determinism
# ---------------------------------------------------------------------------

class TestRealCampaign:
    def test_fresh_then_fully_cached_resume(self, tmp_path):
        spec = smoke_spec((2, 3))
        fresh = CampaignRunner(spec, cache_dir=tmp_path, workers=1).run()
        assert fresh.counts["ok"] == 2
        assert fresh.counts["executed"] == 2
        assert fresh.counts["cache_hits"] == 0
        assert (tmp_path / "manifest.json").exists()

        resumed = CampaignRunner(spec, cache_dir=tmp_path, workers=1).run()
        assert resumed.counts["executed"] == 0
        assert resumed.counts["cache_hits"] == 2
        assert resumed.fingerprint == fresh.fingerprint

    def test_resume_after_interrupt_reruns_only_the_missing_shard(self, tmp_path):
        spec = smoke_spec((2, 3))
        fresh = CampaignRunner(spec, cache_dir=tmp_path, workers=1).run()
        # Simulate an interrupt that lost one shard's committed record.
        victim = next(
            e for e in fresh.manifest["shards"] if e["shard_id"] == "t03-smoke-r0"
        )
        ShardCache(tmp_path).remove(victim["key"])

        resumed = CampaignRunner(spec, cache_dir=tmp_path, workers=1).run()
        assert resumed.counts["executed"] == 1
        assert resumed.counts["cache_hits"] == 1
        by_id = {e["shard_id"]: e for e in resumed.manifest["shards"]}
        assert by_id["t02-smoke-r0"]["cache_hit"] is True
        assert by_id["t03-smoke-r0"]["cache_hit"] is False
        # The re-executed shard recomputed the identical result.
        assert resumed.fingerprint == fresh.fingerprint

    def test_worker_count_does_not_change_results(self, tmp_path):
        """Regression: workers re-seed per shard, never inherit parent RNG."""
        spec = smoke_spec((2, 3))
        random.seed(1234)  # pollute the parent stream on purpose
        serial = CampaignRunner(spec, cache_dir=tmp_path / "w1", workers=1).run()
        random.seed(987654321)  # a different parent stream
        pooled = CampaignRunner(spec, cache_dir=tmp_path / "w4", workers=4).run()

        assert serial.fingerprint == pooled.fingerprint
        serial_fps = {
            e["shard_id"]: e["trace_fingerprint"]
            for e in serial.manifest["shards"]
        }
        pooled_fps = {
            e["shard_id"]: e["trace_fingerprint"]
            for e in pooled.manifest["shards"]
        }
        assert serial_fps == pooled_fps
        assert all(fp for fp in serial_fps.values())

    def test_cache_hit_replays_identical_instrumentation(self, tmp_path):
        shard = expand_spec(smoke_spec((2,)))[0]
        cache = ShardCache(tmp_path)
        live_record, live = execute_shard(
            shard, cache=cache, want_instrumentation=True
        )
        hit_record, replayed = execute_shard(
            shard, cache=cache, want_instrumentation=True
        )
        assert live_record["cache_hit"] is False
        assert hit_record["cache_hit"] is True
        assert hit_record["trace_fingerprint"] == live_record["trace_fingerprint"]
        assert replayed.seed_state_at == live.seed_state_at
        assert replayed.peer.address == live.peer.address
        assert replayed.piece_completions == live.piece_completions
        assert len(replayed.block_arrivals) == len(live.block_arrivals)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

class TestCampaignCLI:
    def test_run_then_status(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        code = cli_main([
            "campaign", "run", "--torrents", "2", "--scenario", "smoke",
            "--cache-dir", cache_dir,
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "t02-smoke-r0" in out
        assert (tmp_path / "cache" / "manifest.json").exists()

        code = cli_main(["campaign", "status", "--cache-dir", cache_dir])
        out = capsys.readouterr().out
        assert code == 0
        assert "t02-smoke-r0" in out

        code = cli_main(["campaign", "status", "--cache-dir", cache_dir, "--json"])
        out = capsys.readouterr().out
        assert code == 0
        manifest = json.loads(out)
        assert manifest["counts"]["ok"] == 1

    def test_status_without_manifest_fails(self, tmp_path, capsys):
        code = cli_main(["campaign", "status", "--cache-dir", str(tmp_path)])
        capsys.readouterr()
        assert code == 1
