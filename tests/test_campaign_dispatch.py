"""Dispatch-conformance suite for campaign execution backends.

Pins the PR's non-negotiable invariant: a campaign's manifest
fingerprint is byte-identical across ``local`` vs ``worker-pool``
dispatch, any worker count, any scheduling order, and warm-vs-cold
caches.  Also covers the wire protocol's failure modes (worker crash
mid-shard, duplicate completion, resume after interrupt) and the
incremental invalidation semantics of ``campaign diff`` /
``run --incremental`` — including a Hypothesis property: for a random
spec edit, the set of shards a re-run executes is exactly the set
whose cache key changed.

Fast tests drive :class:`WorkerPoolBackend` with in-process thread
workers and a cache-committing fake executor; the conformance matrix
(the acceptance criterion) runs real simulations through real worker
processes.  Local workers (``spawn=N``) are forks of the coordinator;
one test serves a ``spawn=0`` coordinator from a ``repro campaign
worker`` subprocess, the path a worker on another host takes.
"""

import json
import os
import socket
import struct
import subprocess
import sys
import tempfile
import threading
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro
from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    DurationBook,
    LocalBackend,
    ShardCache,
    ShardSpec,
    WorkerPoolBackend,
    diff_spec,
    estimate_shard_cost,
    expand_spec,
    resolve_backend,
    run_worker,
    schedule_shards,
    shard_cache_key,
)
from repro.campaign.dispatch import (
    BACKENDS,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameError,
    recv_frame,
    send_frame,
)
from repro.cli import main as cli_main
from repro.spec_grammar import parse_spec

pytestmark = pytest.mark.dispatch

SRC = os.path.dirname(os.path.dirname(repro.__file__))


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


# ---------------------------------------------------------------------------
# In-process worker-pool harness
# ---------------------------------------------------------------------------

class PoolHarness:
    """A runner wired to an injected ``WorkerPoolBackend(workers=0)``,
    run in a background thread so tests can play coordinator clients
    (fake crashing workers, protocol probes, in-process real workers)
    against its live socket."""

    def __init__(self, spec, cache_dir, retries=1, resume=True):
        self.resume = resume
        self.backend = WorkerPoolBackend(workers=0)
        self.runner = CampaignRunner(
            spec,
            cache_dir=str(cache_dir),
            retries=retries,
            backend="worker-pool:spawn=0",
            dispatch_backend=self.backend,
        )
        self.result = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        self.result = self.runner.run(resume=self.resume)

    def __enter__(self):
        self._thread.start()
        assert self.backend.started.wait(10.0), "coordinator never bound"
        return self

    def __exit__(self, *exc):
        self._thread.join(timeout=30.0)
        assert not self._thread.is_alive(), "campaign never finished"

    @property
    def endpoint(self):
        host, port = self.backend.address
        return "%s:%d" % (host, port)

    def connect(self):
        host, port = self.backend.address
        sock = socket.create_connection((host, port), timeout=10.0)
        send_frame(
            sock,
            {"type": "hello", "worker": "test-client",
             "protocol": PROTOCOL_VERSION},
        )
        return sock

    def start_worker(self, executor=fake_commit):
        thread = threading.Thread(
            target=run_worker,
            args=(self.endpoint,),
            kwargs={"executor": executor},
            daemon=True,
        )
        thread.start()
        return thread


# ---------------------------------------------------------------------------
# Frame codec
# ---------------------------------------------------------------------------

#: A body nested deeper than ``json.loads`` recurses: RecursionError, not
#: ValueError, unless the codec maps it.
HOSTILE_NESTING = b"[" * 200_000

#: Any JSON value that survives a round trip with ``==`` (no NaN).
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=16,
)

#: What ``recv_frame`` accepts: an object with a ``"type"`` key.
TYPED_OBJECTS = st.builds(
    lambda kind, rest: {**rest, "type": kind},
    JSON_VALUES,
    st.dictionaries(st.text(), JSON_VALUES, max_size=4),
)


class TestFrameCodec:
    def pair(self):
        return socket.socketpair()

    def test_roundtrip(self):
        a, b = self.pair()
        message = {"type": "work", "shard_id": "t02-smoke-r0",
                   "payload": {"seed": 40, "nested": [1, 2, {"x": None}]}}
        send_frame(a, message)
        assert recv_frame(b) == message
        a.close(), b.close()

    def test_clean_eof_is_none(self):
        a, b = self.pair()
        a.close()
        assert recv_frame(b) is None
        b.close()

    def test_eof_mid_frame_raises(self):
        a, b = self.pair()
        a.sendall(struct.pack(">I", 100) + b"{\"type\"")
        a.close()
        with pytest.raises(FrameError):
            recv_frame(b)
        b.close()

    def test_oversized_frame_raises(self):
        a, b = self.pair()
        a.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
        with pytest.raises(FrameError):
            recv_frame(b)
        a.close(), b.close()

    def test_untyped_and_undecodable_frames_raise(self):
        for body in (
            b"[1,2,3]",
            b"\xff\xfe garbage",
            b"{\"no\": \"type\"}",
            HOSTILE_NESTING,
        ):
            a, b = self.pair()
            a.sendall(struct.pack(">I", len(body)) + body)
            with pytest.raises(FrameError):
                recv_frame(b)
            a.close(), b.close()

    @given(st.lists(TYPED_OBJECTS, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_typed_objects_round_trip(self, messages):
        a, b = self.pair()
        try:
            for message in messages:
                send_frame(a, message)
            a.close()
            assert [recv_frame(b) for __ in messages] == messages
            assert recv_frame(b) is None
        finally:
            a.close(), b.close()

    @given(
        st.lists(
            st.one_of(
                st.binary(max_size=64),
                TYPED_OBJECTS.map(
                    lambda message: json.dumps(message).encode("utf-8")
                ).map(lambda body: struct.pack(">I", len(body)) + body),
            ),
            max_size=4,
        ).map(b"".join)
    )
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_bytes_are_frames_or_frame_errors(self, stream):
        """Whatever the bytes, the reader returns typed frames, then
        either raises ``FrameError`` or returns None at a frame boundary
        (every byte consumed)."""
        a, b = self.pair()
        try:
            a.sendall(stream)
            a.close()
            consumed = 0
            while True:
                try:
                    message = recv_frame(b)
                except FrameError:
                    break
                if message is None:
                    assert consumed == len(stream)
                    break
                assert isinstance(message, dict) and "type" in message
                body = stream[consumed + 4:]
                (length,) = struct.unpack(">I", stream[consumed:consumed + 4])
                # repr, not ==: a frame of hostile bytes may hold a NaN.
                assert repr(json.loads(body[:length].decode("utf-8"))) == repr(message)
                consumed += 4 + length
        finally:
            a.close(), b.close()


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
            ("local:spawn=2", "bad parameters for dispatch backend"),
            ("worker-pool:spawn", "malformed dispatch backend parameter"),
            ("worker-pool:port=http", "invalid literal"),
            ("worker-pool:port=70000", "port in 0-65535"),
            ("worker-pool:spawn=-1", "spawn >= 0"),
        ):
            with pytest.raises(ValueError, match=message):
                resolve_backend(spec, workers=1)

    def test_resolve(self):
        local = resolve_backend("local", workers=4)
        assert isinstance(local, LocalBackend) and local.workers == 4
        pool = resolve_backend("worker-pool:spawn=2,port=7171", workers=8)
        assert isinstance(pool, WorkerPoolBackend)
        assert pool.workers == 2 and pool.port == 7171
        assert resolve_backend("worker-pool", workers=3).workers == 3


# ---------------------------------------------------------------------------
# Worker-pool failure semantics (in-process, fast)
# ---------------------------------------------------------------------------

class TestWorkerPoolSemantics:
    def test_worker_crash_mid_shard_is_retried(self, tmp_path):
        spec = smoke_spec((2,))
        with PoolHarness(spec, tmp_path) as harness:
            crasher = harness.connect()
            work = recv_frame(crasher)
            assert work["type"] == "work"
            crasher.close()  # dies holding the lease
            harness.start_worker()
        result = harness.result
        entry = result.manifest["shards"][0]
        assert entry["status"] == "ok"
        # One attempt charged to the crash, one to the completion.
        assert entry["attempts"] == 2
        assert result.counts["ok"] == 1

    def test_crash_exhausts_retries_to_failed(self, tmp_path):
        spec = smoke_spec((2,))
        with PoolHarness(spec, tmp_path, retries=0) as harness:
            crasher = harness.connect()
            assert recv_frame(crasher)["type"] == "work"
            crasher.close()
        entry = harness.result.manifest["shards"][0]
        assert entry["status"] == "failed"
        assert "WorkerCrashed" in entry["errors"][0]

    def test_hostile_reply_fails_the_shard_instead_of_stranding_it(
        self, tmp_path
    ):
        """Regression: a reply nested deeper than the JSON decoder
        recurses escaped the connection thread as RecursionError, which
        died holding the lease: run() never returned."""
        spec = smoke_spec((2,))
        with PoolHarness(spec, tmp_path, retries=0) as harness:
            client = harness.connect()
            assert recv_frame(client)["type"] == "work"
            client.sendall(struct.pack(">I", len(HOSTILE_NESTING)) + HOSTILE_NESTING)
            harness._thread.join(timeout=10.0)
            assert not harness._thread.is_alive(), "run() still blocked"
            client.close()
        entry = harness.result.manifest["shards"][0]
        assert entry["status"] == "failed"
        assert "WorkerCrashed" in entry["errors"][0]
        assert "undecodable frame" in entry["errors"][0]

    def test_remote_error_consumes_retries(self, tmp_path):
        spec = smoke_spec((2,))
        with PoolHarness(spec, tmp_path, retries=1) as harness:
            harness.start_worker(executor=fake_fail)
        entry = harness.result.manifest["shards"][0]
        assert entry["status"] == "failed"
        assert entry["attempts"] == 2
        assert all("RemoteShardError" in err for err in entry["errors"])

    def test_remote_timeout_recorded_not_retried(self, tmp_path):
        # A remote ShardTimeout is deterministic: one attempt, status
        # "timeout", exactly like the local pool's semantics.
        spec = smoke_spec((2,))
        with PoolHarness(spec, tmp_path, retries=5) as harness:
            client = harness.connect()
            work = recv_frame(client)
            send_frame(client, {
                "type": "error", "shard_id": work["shard_id"],
                "kind": "ShardTimeout", "message": "overran budget",
            })
            recv_frame(client)  # shutdown
            client.close()
        entry = harness.result.manifest["shards"][0]
        assert entry["status"] == "timeout"
        assert entry["attempts"] == 1

    def test_stale_duplicate_result_frame_discarded(self, tmp_path):
        # A worker re-sending an already-delivered result must not be
        # read as the answer to its next lease.
        spec = smoke_spec((2, 3))
        with PoolHarness(spec, tmp_path) as harness:
            client = harness.connect()
            first = recv_frame(client)
            record_a = fake_commit(dict(first["payload"]))
            send_frame(client, {"type": "result",
                                "shard_id": first["shard_id"],
                                "record": record_a})
            second = recv_frame(client)
            assert second["type"] == "work"
            assert second["shard_id"] != first["shard_id"]
            # Stale duplicate of the first result, then the real one.
            send_frame(client, {"type": "result",
                                "shard_id": first["shard_id"],
                                "record": record_a})
            record_b = fake_commit(dict(second["payload"]))
            send_frame(client, {"type": "result",
                                "shard_id": second["shard_id"],
                                "record": record_b})
            assert recv_frame(client)["type"] == "shutdown"
            client.close()
        assert harness.result.counts["ok"] == 2
        assert harness.backend.duplicate_results == 1
        for entry in harness.result.manifest["shards"]:
            assert entry["attempts"] == 1

    def test_duplicate_completion_through_cache_is_idempotent(self, tmp_path):
        # Worker 1 executes + commits, then dies before reporting; the
        # requeued shard reaches worker 2 with resume=True and is served
        # from the single committed entry — one commit, same bytes.
        spec = smoke_spec((2,))
        with PoolHarness(spec, tmp_path) as harness:
            client = harness.connect()
            work = recv_frame(client)
            assert work["payload"]["resume"] is True
            fake_commit(dict(work["payload"]))  # commit, then "die"
            client.close()
            harness.start_worker()
        result = harness.result
        entry = result.manifest["shards"][0]
        assert entry["status"] == "ok"
        key = entry["key"]
        cache = ShardCache(tmp_path)
        assert cache.load(key)["trace_fingerprint"] == entry["trace_fingerprint"]
        # Exactly one committed trace, no tmp debris.
        assert len(list(Path(tmp_path).glob("*.trace.jsonl"))) == 1
        assert list(Path(tmp_path).glob("*.tmp")) == []
        # The crashed-after-commit run fingerprints identically to a
        # clean local run of the same spec.
        clean = CampaignRunner(
            spec, cache_dir=str(tmp_path / "clean"), executor=fake_commit
        ).run()
        assert result.fingerprint == clean.fingerprint

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
        # through the worker pool executes only the missing shard and
        # lands on the clean-run fingerprint.
        spec = smoke_spec((2, 3))
        CampaignRunner(
            spec, cache_dir=str(tmp_path), executor=fake_commit
        ).run(shard_filter="t02-*")
        with PoolHarness(spec, tmp_path) as harness:
            harness.start_worker()
        result = harness.result
        assert result.counts["cache_hits"] == 1
        assert result.counts["executed"] == 1
        clean = CampaignRunner(
            spec, cache_dir=str(tmp_path / "clean"), executor=fake_commit
        ).run()
        assert result.fingerprint == clean.fingerprint

    def test_fresh_run_through_worker_pool_ignores_the_cache(self, tmp_path):
        # Regression: the worker-pool payload forced resume=True, so a
        # --fresh run was answered from the cache it meant to ignore.
        spec = smoke_spec((2,))
        CampaignRunner(spec, cache_dir=str(tmp_path), executor=fake_commit).run()
        with PoolHarness(spec, tmp_path, resume=False) as harness:
            harness.start_worker()
        assert harness.result.counts["cache_hits"] == 0
        assert harness.result.records["t02-smoke-r0"]["cache_hit"] is False

    def test_failed_shard_retries_on_next_run(self, tmp_path):
        # A shard that failed (no cache entry) re-executes on the next
        # worker-pool run and converges to the clean fingerprint.
        spec = smoke_spec((2, 3))
        with PoolHarness(spec, tmp_path, retries=0) as harness:
            client = harness.connect()
            work = recv_frame(client)
            send_frame(client, {
                "type": "result", "shard_id": work["shard_id"],
                "record": fake_commit(dict(work["payload"])),
            })
            # Crash while holding the second shard: retries=0 fails it.
            assert recv_frame(client)["type"] == "work"
            client.close()
        assert harness.result.counts["failed"] == 1
        with PoolHarness(spec, tmp_path) as rerun:
            rerun.start_worker()
        assert rerun.result.counts["failed"] == 0
        assert rerun.result.counts["cache_hits"] == 1
        clean = CampaignRunner(
            spec, cache_dir=str(tmp_path / "clean"), executor=fake_commit
        ).run()
        assert rerun.result.fingerprint == clean.fingerprint


# ---------------------------------------------------------------------------
# Conformance matrix (the acceptance criterion): real sims, real workers
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def conformance_runs(tmp_path_factory):
    """Run the same tiny campaign through every backend configuration."""
    spec = smoke_spec((2, 3))
    root = tmp_path_factory.mktemp("conformance")
    runs = {}
    for label, kwargs in (
        ("local-w1", {"workers": 1}),
        ("local-w2", {"workers": 2}),
        ("pool-w1", {"backend": "worker-pool:spawn=1"}),
        ("pool-w3", {"backend": "worker-pool:spawn=3"}),
    ):
        runs[label] = CampaignRunner(
            spec, cache_dir=str(root / label), **kwargs
        ).run()
    runs["warm-rerun"] = CampaignRunner(
        spec, cache_dir=str(root / "pool-w3"),
        backend="worker-pool:spawn=1",
    ).run()
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

    def test_manifest_records_backend(self, conformance_runs):
        assert conformance_runs["local-w1"].manifest["backend"] == "local"
        assert (
            conformance_runs["pool-w1"].manifest["backend"]
            == "worker-pool:spawn=1"
        )

    def test_a_worker_started_by_hand_matches_local(
        self, conformance_runs, tmp_path
    ):
        # The path a worker on another host takes: a new interpreter
        # running the CLI, connected to a coordinator that forks none.
        with PoolHarness(smoke_spec((2, 3)), tmp_path) as harness:
            worker = subprocess.Popen(
                [sys.executable, "-m", "repro", "campaign", "worker",
                 "--connect", harness.endpoint],
                env=dict(os.environ, PYTHONPATH=SRC),
            )
        assert worker.wait(timeout=30.0) == 0
        assert harness.result.counts["ok"] == 2
        assert (
            harness.result.fingerprint
            == conformance_runs["local-w1"].fingerprint
        )


# ---------------------------------------------------------------------------
# Local workers are forks of the coordinator
# ---------------------------------------------------------------------------

def crash_once(marker):
    """An executor whose first call kills its process (leaving *marker*
    behind); every later call commits like :func:`fake_commit`."""

    def executor(payload):
        if not marker.exists():
            marker.touch()
            os._exit(3)
        return fake_commit(payload)

    return executor


class TestForkedWorkers:
    def test_a_worker_that_dies_is_replaced(self, tmp_path):
        spec = smoke_spec((2,))
        result = CampaignRunner(
            spec, cache_dir=str(tmp_path / "pool"),
            backend="worker-pool:spawn=1",
            executor=crash_once(tmp_path / "crashed"),
        ).run()
        entry = result.manifest["shards"][0]
        assert entry["status"] == "ok"
        # One attempt charged to the dead worker, one to its replacement.
        assert entry["attempts"] == 2
        clean = CampaignRunner(
            spec, cache_dir=str(tmp_path / "clean"), executor=fake_commit
        ).run()
        assert result.fingerprint == clean.fingerprint

    def test_no_local_worker_starts_a_new_interpreter(
        self, tmp_path, monkeypatch
    ):
        def no_popen(*args, **kwargs):
            raise AssertionError("a local worker was started as %r" % (args,))

        monkeypatch.setattr(subprocess, "Popen", no_popen)
        result = CampaignRunner(
            smoke_spec((2, 3)), cache_dir=str(tmp_path),
            backend="worker-pool:spawn=1", executor=fake_commit,
        ).run()
        assert result.counts["ok"] == 2

    def test_workers_fork_before_the_coordinator_starts_a_thread(
        self, tmp_path, monkeypatch
    ):
        # Python 3.12 warns when it sees a fork in a multi-threaded
        # process; on Linux it counts OS threads, numpy's BLAS pool
        # among them, so the Python thread count at each fork is
        # checked directly as well.
        baseline = threading.active_count()
        threads_at_fork = []
        real_fork = os.fork

        def counting_fork():
            threads_at_fork.append(threading.active_count())
            return real_fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            result = CampaignRunner(
                smoke_spec((2, 3)), cache_dir=str(tmp_path),
                backend="worker-pool:spawn=1", executor=fake_commit,
            ).run()
        assert result.counts["ok"] == 2
        assert threads_at_fork == [baseline]


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
    if kind == "selector":
        return CampaignSpec(**{**vars(spec).copy(), "selector": value})
    raise AssertionError(kind)


spec_edits = st.one_of(
    st.tuples(st.just("duration"), st.sampled_from([40.0, 60.0, 100.0])),
    st.tuples(st.just("seed"), st.integers(min_value=3, max_value=6)),
    st.tuples(
        st.just("torrents"),
        st.sampled_from([(2,), (3,), (2, 3), (2, 3, 13)]),
    ),
    st.tuples(st.just("replicates"), st.integers(min_value=1, max_value=2)),
    st.tuples(st.just("selector"), st.sampled_from([None, "random"])),
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
