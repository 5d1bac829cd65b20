"""Dispatch-conformance suite for campaign execution.

Pins the campaign's non-negotiable invariant: a manifest fingerprint is
byte-identical across worker counts (inline at ``workers=1``, a process
pool above that), any scheduling order, and warm-vs-cold caches.  Also
covers the process pool's failure modes (worker crash mid-shard,
duplicate completion through the cache, resume after interrupt) and the
incremental invalidation semantics of ``campaign diff`` /
``run --incremental`` — including a Hypothesis property: for a random
spec edit, the set of shards a re-run executes is exactly the set
whose cache key changed.

Fast tests drive :class:`CampaignRunner` with cache-committing fake
executors in real worker processes; the conformance matrix (the
acceptance criterion) runs real simulations.
"""

import json
import os
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    DurationBook,
    LocalBackend,
    ShardCache,
    ShardSpec,
    diff_spec,
    estimate_shard_cost,
    expand_spec,
    resolve_backend,
    schedule_shards,
    shard_cache_key,
)
from repro.campaign.dispatch import BACKENDS
from repro.cli import main as cli_main
from repro.spec_grammar import parse_spec

pytestmark = pytest.mark.dispatch


def smoke_spec(torrent_ids=(2, 3), **overrides):
    kwargs = {
        "name": "dispatch-test",
        "torrent_ids": tuple(torrent_ids),
        "scenarios": ("smoke",),
        "duration": 40.0,
    }
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


# ---------------------------------------------------------------------------
# Fake executors (module level: picklable into real worker processes).
# ---------------------------------------------------------------------------

def fake_commit(payload):
    """Deterministic stand-in for ``run_shard_payload``: same cache
    contract (resume serves the committed entry; a fresh run commits a
    trace + record atomically) without simulating anything."""
    shard = ShardSpec.from_payload(payload)
    key = shard_cache_key(shard)
    cache = (
        ShardCache(payload["cache_root"]) if payload.get("cache_root") else None
    )
    if cache is not None and payload.get("resume"):
        cached = cache.load(key)
        if cached is not None:
            record = dict(cached)
            record["cache_hit"] = True
            return record
    record = {
        "key": key,
        "shard_id": shard.shard_id,
        "status": "ok",
        "cache_hit": False,
        "wall_seconds": 0.01,
        "trace_fingerprint": "fp-%d" % shard.seed,
        "summary": {},
    }
    record.update(shard.as_payload())
    if cache is not None:
        tmp = cache.trace_tmp_path(key)
        tmp.write_text("trace fp-%d\n" % shard.seed)
        cache.store(key, record, trace_tmp=tmp)
    return record


def fake_commit_slow(payload):
    time.sleep(0.2)
    return fake_commit(payload)


def fake_fail(payload):
    raise ValueError("shard %d is cursed" % payload["torrent_id"])


def fake_fail_torrent_3(payload):
    if payload["torrent_id"] == 3:
        return fake_fail(payload)
    return fake_commit(payload)


def fake_hang(payload):
    time.sleep(5.0)
    return fake_commit(payload)


def crash(payload):
    os._exit(3)  # hard kill: breaks the whole process pool


def crash_once(marker, payload):
    """Kill the worker on the first call (leaving *marker* behind);
    every later call commits like :func:`fake_commit`."""
    if not os.path.exists(marker):
        Path(marker).touch()
        crash(payload)
    return fake_commit(payload)


def commit_then_crash_once(marker, payload):
    """Commit the shard, then die before reporting it — once."""
    record = fake_commit(payload)
    if not os.path.exists(marker):
        Path(marker).touch()
        crash(payload)
    return record


# ---------------------------------------------------------------------------
# Cache-aware scheduling
# ---------------------------------------------------------------------------

class TestScheduling:
    def test_cold_estimate_scales_with_size_and_duration(self):
        small = expand_spec(smoke_spec((2,)))[0]
        # Torrent 13 is a bigger Table-I entry than torrent 2.
        big = expand_spec(smoke_spec((13,)))[0]
        assert estimate_shard_cost(big) > estimate_shard_cost(small)
        longer = expand_spec(smoke_spec((2,), duration=400.0))[0]
        assert estimate_shard_cost(longer) > estimate_shard_cost(small)

    def test_longest_first_with_stable_tiebreak(self):
        shards = expand_spec(smoke_spec((2, 3, 13)))
        durations = DurationBook()
        durations.record("t03-smoke-r0", 50.0)
        durations.record("t02-smoke-r0", 10.0)
        ordered = [s.shard_id for s in schedule_shards(shards, durations)]
        # Recorded 50s beats recorded 10s; the cold t13 estimate is
        # sub-second, so it schedules last.
        assert ordered == ["t03-smoke-r0", "t02-smoke-r0", "t13-smoke-r0"]

    def test_equal_cost_orders_by_shard_id(self):
        shards = expand_spec(smoke_spec((2,), replicates=3))
        durations = DurationBook()
        for shard in shards:
            durations.record(shard.shard_id, 5.0)
        ordered = [s.shard_id for s in schedule_shards(shards, durations)]
        assert ordered == sorted(ordered)

    def test_scheduling_never_changes_results(self, tmp_path):
        # Same spec, one cold cache vs one with adversarial recorded
        # durations (reversed order): identical fingerprints.
        spec = smoke_spec((2, 3, 13))
        a = CampaignRunner(spec, cache_dir=str(tmp_path / "a"),
                           executor=fake_commit).run()
        durations = DurationBook(tmp_path / "b")
        durations.record("t02-smoke-r0", 1000.0)
        durations.record("t13-smoke-r0", 0.001)
        durations.save()
        b = CampaignRunner(spec, cache_dir=str(tmp_path / "b"),
                           executor=fake_commit).run()
        assert a.fingerprint == b.fingerprint

    def test_duration_book_roundtrip_and_corruption(self, tmp_path):
        book = DurationBook(tmp_path)
        book.record("t02-smoke-r0", 1.23456)
        book.save()
        reloaded = DurationBook(tmp_path)
        assert reloaded.get("t02-smoke-r0") == 1.2346
        (tmp_path / "durations.json").write_text("{not json")
        assert len(DurationBook(tmp_path)) == 0

    def test_runner_records_durations(self, tmp_path):
        CampaignRunner(
            smoke_spec((2,)), cache_dir=str(tmp_path), executor=fake_commit
        ).run()
        assert DurationBook(tmp_path).get("t02-smoke-r0") == 0.01


# ---------------------------------------------------------------------------
# Backend specs
# ---------------------------------------------------------------------------

class TestBackendSpec:
    def test_parse(self):
        def parse(spec):
            return parse_spec(spec, "dispatch backend", BACKENDS)

        assert parse("local") == ("local", {})
        assert parse("worker-pool") == ("worker-pool", {})
        assert parse("worker-pool:spawn=3, port=7000") == (
            "worker-pool", {"spawn": "3", "port": "7000"}
        )

    def test_parse_rejects_unknown_and_malformed(self):
        for spec, message in (
            ("slurm", "unknown dispatch backend 'slurm' \\(have: "),
            ("worker-pool:spwan=3", "bad parameters for dispatch backend"),
            ("worker-pool:workers=3", "bad parameters for dispatch backend"),
            ("worker-pool:host=10.0.0.1", "bad parameters for dispatch backend"),
            ("local:spawn=2", "bad parameters for dispatch backend"),
            ("worker-pool:spawn", "malformed dispatch backend parameter"),
            ("worker-pool:spawn=two", "invalid literal"),
            ("worker-pool:spawn=0", "spawn >= 1, not 0"),
            ("worker-pool:spawn=-1", "spawn >= 1, not -1"),
        ):
            with pytest.raises(ValueError, match=message):
                resolve_backend(spec, workers=1)

    def test_resolve(self):
        local = resolve_backend("local", workers=4)
        assert isinstance(local, LocalBackend) and local.workers == 4
        pool = resolve_backend("worker-pool:spawn=2", workers=8)
        assert isinstance(pool, LocalBackend) and pool.workers == 2
        assert resolve_backend("worker-pool", workers=3).workers == 3

    def test_worker_pool_spelling_is_the_local_pool(self, tmp_path):
        # The spelling the benchmark suite's campaign workload uses: the
        # same process pool, at spawn workers, and no socket parameter.
        pool = resolve_backend("worker-pool:spawn=3", workers=1)
        assert isinstance(pool, LocalBackend) and pool.workers == 3
        with pytest.raises(ValueError, match="bad parameters for dispatch backend"):
            resolve_backend("worker-pool:port=7000", workers=1)
        with pytest.raises(ValueError, match="bad parameters"):
            CampaignRunner(
                smoke_spec((2,)), cache_dir=str(tmp_path / "refused"),
                backend="worker-pool:port=7000",
            )
        assert not (tmp_path / "refused").exists()
        # The manifest records the worker count that ran, not the
        # ``workers`` argument the spelling overrode.
        result = CampaignRunner(
            smoke_spec((2, 3)), cache_dir=str(tmp_path / "cache"), workers=1,
            backend="worker-pool:spawn=3", executor=fake_commit,
        ).run()
        assert result.counts["ok"] == 2
        assert result.manifest["workers"] == 3
        manifest = json.loads((tmp_path / "cache" / "manifest.json").read_text())
        assert manifest["workers"] == 3 and "backend" not in manifest


# ---------------------------------------------------------------------------
# Process-pool failure semantics (LocalBackend at workers=2, fast)
# ---------------------------------------------------------------------------

class TestWorkerPoolSemantics:
    """A shard through the 2-worker process pool: crashes, errors and
    timeouts are charged to the right shard, and the cache makes every
    retry and re-run converge on the clean fingerprint."""

    def pool_run(self, spec, cache_dir, resume=True, **kwargs):
        runner = CampaignRunner(spec, cache_dir=str(cache_dir), workers=2, **kwargs)
        assert runner.dispatch.workers == 2
        return runner.run(resume=resume)

    def clean(self, spec, cache_dir):
        return CampaignRunner(
            spec, cache_dir=str(cache_dir), executor=fake_commit
        ).run()

    def test_worker_crash_mid_shard_is_retried(self, tmp_path):
        result = self.pool_run(
            smoke_spec((2,)), tmp_path / "cache",
            executor=partial(crash_once, str(tmp_path / "crashed")),
        )
        assert (tmp_path / "crashed").exists()  # the crash happened
        entry = result.manifest["shards"][0]
        assert entry["status"] == "ok"
        # One attempt charged to the crash, one to the completion.
        assert entry["attempts"] == 2
        assert result.counts["ok"] == 1

    def test_crash_exhausts_retries_to_failed(self, tmp_path):
        result = self.pool_run(smoke_spec((2,)), tmp_path, retries=0, executor=crash)
        entry = result.manifest["shards"][0]
        assert entry["status"] == "failed"
        assert entry["attempts"] == 1
        assert "BrokenProcessPool" in entry["errors"][0]

    def test_executor_error_consumes_retries(self, tmp_path):
        result = self.pool_run(smoke_spec((2,)), tmp_path, retries=1, executor=fake_fail)
        entry = result.manifest["shards"][0]
        assert entry["status"] == "failed"
        assert entry["attempts"] == 2
        assert all("ValueError: shard 2 is cursed" in err for err in entry["errors"])

    def test_timeout_recorded_not_retried(self, tmp_path):
        # The worker's SIGALRM fires in the child; a timeout is
        # deterministic: one attempt, status "timeout".
        result = self.pool_run(
            smoke_spec((2,)), tmp_path, timeout=0.2, retries=5, executor=fake_hang
        )
        entry = result.manifest["shards"][0]
        assert entry["status"] == "timeout"
        assert entry["attempts"] == 1
        assert "ShardTimeout" in entry["errors"][0]

    def test_duplicate_completion_through_cache_is_idempotent(self, tmp_path):
        # The worker executes + commits, then dies before reporting; the
        # retried shard carries resume=True and is served from the
        # single committed entry — one commit, same bytes.
        cache_dir = tmp_path / "cache"
        spec = smoke_spec((2,))
        result = self.pool_run(
            spec, cache_dir,
            executor=partial(commit_then_crash_once, str(tmp_path / "crashed")),
        )
        entry = result.manifest["shards"][0]
        assert entry["status"] == "ok"
        assert entry["attempts"] == 2
        assert result.records["t02-smoke-r0"]["cache_hit"] is True
        cache = ShardCache(cache_dir)
        assert cache.load(entry["key"])["trace_fingerprint"] == entry["trace_fingerprint"]
        # Exactly one committed trace, no tmp debris.
        assert len(list(cache_dir.glob("*.trace.jsonl"))) == 1
        assert list(cache_dir.glob("*.tmp")) == []
        # The crashed-after-commit run fingerprints identically to a
        # clean inline run of the same spec.
        assert result.fingerprint == self.clean(spec, tmp_path / "clean").fingerprint

    def test_racing_commits_are_byte_identical(self, tmp_path):
        # Two real processes commit the same shard concurrently into one
        # cache: atomic rename, last writer wins, same bytes either way.
        shard = expand_spec(smoke_spec((2,)))[0]
        payload = shard.as_payload()
        payload["cache_root"] = str(tmp_path)
        with ProcessPoolExecutor(max_workers=2) as pool:
            futures = [
                pool.submit(fake_commit_slow, dict(payload)) for _ in range(2)
            ]
            records = [future.result() for future in futures]
        assert records[0] == records[1]
        cache = ShardCache(tmp_path)
        key = shard_cache_key(shard)
        stored = cache.load(key)
        assert stored is not None
        assert stored["trace_fingerprint"] == records[0]["trace_fingerprint"]
        assert list(Path(tmp_path).glob("*.tmp")) == []

    def test_resume_after_interrupt_through_worker_pool(self, tmp_path):
        # First run "interrupts" after one shard (filter); the full run
        # through the pool executes only the missing shard and lands on
        # the clean-run fingerprint.
        spec = smoke_spec((2, 3))
        CampaignRunner(
            spec, cache_dir=str(tmp_path), executor=fake_commit
        ).run(shard_filter="t02-*")
        result = self.pool_run(spec, tmp_path, executor=fake_commit)
        assert result.counts["cache_hits"] == 1
        assert result.counts["executed"] == 1
        assert result.fingerprint == self.clean(spec, tmp_path / "clean").fingerprint

    def test_fresh_run_through_worker_pool_ignores_the_cache(self, tmp_path):
        spec = smoke_spec((2,))
        CampaignRunner(spec, cache_dir=str(tmp_path), executor=fake_commit).run()
        result = self.pool_run(spec, tmp_path, resume=False, executor=fake_commit)
        assert result.counts["cache_hits"] == 0
        assert result.records["t02-smoke-r0"]["cache_hit"] is False

    def test_failed_shard_retries_on_next_run(self, tmp_path):
        # A shard that failed (no cache entry) re-executes on the next
        # run and converges to the clean fingerprint.
        spec = smoke_spec((2, 3))
        first = self.pool_run(spec, tmp_path, retries=0, executor=fake_fail_torrent_3)
        assert first.counts["failed"] == 1
        rerun = self.pool_run(spec, tmp_path, executor=fake_commit)
        assert rerun.counts["failed"] == 0
        assert rerun.counts["cache_hits"] == 1
        assert rerun.fingerprint == self.clean(spec, tmp_path / "clean").fingerprint


# ---------------------------------------------------------------------------
# Conformance matrix (the acceptance criterion): real sims, real workers
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def conformance_runs(tmp_path_factory):
    """Run the same tiny campaign at every worker count, then warm."""
    spec = smoke_spec((2, 3))
    root = tmp_path_factory.mktemp("conformance")
    runs = {}
    for workers in (1, 2, 3):
        label = "local-w%d" % workers
        runs[label] = CampaignRunner(
            spec, cache_dir=str(root / label), workers=workers
        ).run()
    runs["warm-rerun"] = CampaignRunner(spec, cache_dir=str(root / "local-w3")).run()
    return runs


class TestConformance:
    def test_all_backends_fingerprint_identically(self, conformance_runs):
        fingerprints = {
            label: run.fingerprint for label, run in conformance_runs.items()
        }
        assert len(set(fingerprints.values())) == 1, fingerprints

    def test_every_run_completed_cleanly(self, conformance_runs):
        for label, run in conformance_runs.items():
            assert run.counts["failed"] == 0, label
            assert run.counts["timeout"] == 0, label
            assert run.counts["ok"] == run.counts["shards"], label

    def test_warm_rerun_is_all_cache_hits(self, conformance_runs):
        warm = conformance_runs["warm-rerun"]
        assert warm.counts["cache_hits"] == warm.counts["shards"]
        assert warm.counts["executed"] == 0


# ---------------------------------------------------------------------------
# Incremental invalidation
# ---------------------------------------------------------------------------

def apply_edit(spec, edit):
    kind, value = edit
    if kind == "duration":
        return CampaignSpec(**{**vars(spec).copy(), "duration": value})
    if kind == "seed":
        return CampaignSpec(**{**vars(spec).copy(), "campaign_seed": value})
    if kind == "torrents":
        return CampaignSpec(**{**vars(spec).copy(), "torrent_ids": value})
    if kind == "replicates":
        return CampaignSpec(**{**vars(spec).copy(), "replicates": value})
    if kind == "block_size":
        return CampaignSpec(**{**vars(spec).copy(), "block_size": value})
    raise AssertionError(kind)


spec_edits = st.one_of(
    st.tuples(st.just("duration"), st.sampled_from([40.0, 60.0, 100.0])),
    st.tuples(st.just("seed"), st.integers(min_value=3, max_value=6)),
    st.tuples(
        st.just("torrents"),
        st.sampled_from([(2,), (3,), (2, 3), (2, 3, 13)]),
    ),
    st.tuples(st.just("replicates"), st.integers(min_value=1, max_value=2)),
    st.tuples(st.just("block_size"), st.sampled_from([None, 32768])),
)


class TestIncrementalInvalidation:
    def test_fresh_cache_reports_everything_new(self, tmp_path):
        report = diff_spec(smoke_spec((2, 3)), tmp_path)
        assert [d.state for d in report.deltas] == ["new", "new"]
        assert len(report.invalidated) == 2

    def test_field_level_reasons(self, tmp_path):
        spec = smoke_spec((2,))
        CampaignRunner(spec, cache_dir=str(tmp_path),
                       executor=fake_commit).run()
        edited = apply_edit(spec, ("duration", 120.0))
        report = diff_spec(edited, tmp_path)
        (delta,) = report.deltas
        assert delta.state == "changed"
        assert delta.changed_fields == [("duration", 40.0, 120.0)]
        assert "duration" in delta.reason

    def test_eviction_detected(self, tmp_path):
        spec = smoke_spec((2,))
        result = CampaignRunner(spec, cache_dir=str(tmp_path),
                                executor=fake_commit).run()
        ShardCache(tmp_path).remove(result.manifest["shards"][0]["key"])
        report = diff_spec(spec, tmp_path)
        assert [d.state for d in report.deltas] == ["evicted"]

    def test_removed_shards_surfaced(self, tmp_path):
        CampaignRunner(smoke_spec((2, 3)), cache_dir=str(tmp_path),
                       executor=fake_commit).run()
        report = diff_spec(smoke_spec((2,)), tmp_path)
        assert report.removed == ["t03-smoke-r0"]
        assert len(report.invalidated) == 0

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(edit=spec_edits, second_edit=spec_edits)
    def test_rerun_set_equals_key_changed_set(self, edit, second_edit):
        # For a random pair of spec edits applied on top of a cached
        # base run: the shards a re-run executes are exactly the shards
        # whose cache key changed, and an incremental re-run right after
        # a diff is 100% cache hits.
        base = smoke_spec((2, 3))
        with tempfile.TemporaryDirectory() as cache_dir:
            CampaignRunner(base, cache_dir=cache_dir,
                           executor=fake_commit).run()
            edited = apply_edit(apply_edit(base, edit), second_edit)

            cache = ShardCache(cache_dir)
            key_changed = {
                shard.shard_id
                for shard in expand_spec(edited)
                if cache.load(shard_cache_key(shard)) is None
            }
            report = diff_spec(edited, cache_dir)
            assert {d.shard_id for d in report.invalidated} == key_changed

            result = CampaignRunner(edited, cache_dir=cache_dir,
                                    executor=fake_commit).run()
            executed = {
                entry["shard_id"]
                for entry in result.manifest["shards"]
                if not entry["cache_hit"]
            }
            assert executed == key_changed

            # After the run, the spec is fully cached: diff reports no
            # invalidation and a further re-run is 100% cache hits.
            assert diff_spec(edited, cache_dir).invalidated == []
            rerun = CampaignRunner(edited, cache_dir=cache_dir,
                                   executor=fake_commit).run()
            assert rerun.counts["cache_hits"] == rerun.counts["shards"]
            assert rerun.fingerprint == result.fingerprint


class TestIncrementalCLI:
    def run_cli(self, *argv):
        return cli_main(list(argv))

    def test_diff_and_incremental_run_end_to_end(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        base = ["--torrents", "2", "--scenario", "smoke",
                "--duration", "40", "--cache-dir", cache, "--name", "cli"]
        assert self.run_cli("campaign", "run", *base) == 0
        capsys.readouterr()

        # Fully cached: diff exits 0.
        assert self.run_cli("campaign", "diff", *base) == 0
        out = capsys.readouterr().out
        assert "1 cached, 0 invalidated" in out

        # Edited spec: diff exits 1 and names the moved field.
        edited = base.copy()
        edited[edited.index("40")] = "60"
        assert self.run_cli("campaign", "diff", *edited) == 1
        out = capsys.readouterr().out
        assert "duration: 40.0 -> 60.0" in out

        # Incremental run executes exactly the invalidated shard...
        assert self.run_cli(
            "campaign", "run", "--incremental", *edited
        ) == 0
        out = capsys.readouterr().out
        assert "executed=1" in out
        # ...after which the diff is clean and a re-run is all hits.
        assert self.run_cli("campaign", "diff", *edited) == 0
        capsys.readouterr()
        assert self.run_cli(
            "campaign", "run", "--incremental", *edited
        ) == 0
        out = capsys.readouterr().out
        assert "cache_hits=1 executed=0" in out

    def test_diff_json(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert self.run_cli(
            "campaign", "diff", "--torrents", "2,3", "--scenario", "smoke",
            "--duration", "40", "--cache-dir", cache, "--json",
        ) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["new"] == 2
        assert {s["state"] for s in payload["shards"]} == {"new"}
