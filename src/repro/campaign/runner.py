"""Multi-process campaign execution.

:func:`execute_shard` runs one fully resolved :class:`ShardSpec` —
live, or served from the content-addressed cache — and is the single
code path behind every consumer: ``repro reproduce`` runs it inline,
the :class:`CampaignRunner` ships it to worker processes, and a cache
hit replays the stored trace into the exact live ``Instrumentation``.

:class:`CampaignRunner` expands a :class:`CampaignSpec` into shards,
orders the ones the cache cannot answer longest-first (recorded
durations when known, a ``piece_count x peers`` estimate for cold
shards) and executes them through
:class:`~repro.campaign.dispatch.LocalBackend`: inline at
``workers=1``, a ``ProcessPoolExecutor`` above that.  Semantics do not
depend on the worker count:

* **RNG hygiene** — every worker re-seeds both the global ``random``
  module and the simulation (via the shard's derived seed) before
  touching a shard; nothing is inherited from the parent process, so a
  1-worker and a 64-worker campaign produce byte-identical traces.
* **Per-shard timeout** — enforced *inside* the worker with an interval
  timer (``SIGALRM``), so a wedged shard kills itself instead of the
  campaign; timeouts are deterministic, so they are recorded, not
  retried.
* **Bounded retry on crash** — a worker dying abruptly (a broken
  process pool) charges one attempt to the shard that surfaced the
  crash and leaves the rest unharmed, until each shard either
  completes or exhausts ``retries``.
* **Structured failure records** — a failed/timed-out shard becomes a
  manifest entry (status, attempts, error strings) and the campaign
  carries on; it never aborts the other shards.

The run ends with a ``manifest.json`` in the cache directory: one entry
per shard (status, duration, cache hit/miss, trace fingerprint) plus a
:func:`manifest_fingerprint` over the order-independent, scheduling-
independent fields — two campaigns agree on that fingerprint iff they
computed the same results.
"""

from __future__ import annotations

import json
import math
import random
import signal
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.campaign.cache import DurationBook, ShardCache, shard_cache_key
from repro.campaign.spec import CampaignSpec, ShardSpec, expand_spec
from repro.instrumentation import Instrumentation, TraceRecorder
from repro.instrumentation.replay import replay_instrumentation
from repro.workloads import build_experiment, resolve_scenario

#: XOR salt for the *global* ``random`` re-seed, so the hygiene seed and
#: the simulation seed are distinct streams even though both derive from
#: the shard seed.
_RESEED_SALT = 0x5EED5A17

MANIFEST_SCHEMA_VERSION = 1
MANIFEST_NAME = "manifest.json"


class ShardTimeout(Exception):
    """A shard overran its per-shard wall-clock budget (worker-side)."""


def _alarm(signum, frame):  # pragma: no cover - fires only on overrun
    raise ShardTimeout("shard exceeded its timeout")


def execute_shard(
    shard: ShardSpec,
    cache: Optional[ShardCache] = None,
    resume: bool = True,
    want_instrumentation: bool = False,
) -> Tuple[dict, Optional[Instrumentation]]:
    """Run one shard; returns ``(record, instrumentation-or-None)``.

    With a cache and ``resume``, a complete entry is returned without
    simulating; ``want_instrumentation`` then rebuilds the exact live
    ``Instrumentation`` by replaying the cached trace.  A live run
    always records a structured trace (in-memory when there is no
    cache), so every record carries a ``trace_fingerprint`` — the
    determinism witness the manifest is fingerprinted over.
    """
    key = shard_cache_key(shard)
    if cache is not None and resume:
        cached = cache.load(key)
        if cached is not None:
            record = dict(cached)
            record["cache_hit"] = True
            instrumentation = (
                replay_instrumentation(str(cache.trace_path(key)))
                if want_instrumentation
                else None
            )
            return record, instrumentation

    # Per-shard RNG hygiene: the global random module is re-seeded from
    # the shard (never inherited from the parent process), and the
    # simulation draws only from Random(shard.seed)-derived streams.
    random.seed(shard.seed ^ _RESEED_SALT)

    trace_tmp = cache.trace_tmp_path(key) if cache is not None else None
    recorder = TraceRecorder(str(trace_tmp) if trace_tmp is not None else None)
    started = time.perf_counter()
    try:
        harness = build_experiment(
            resolve_scenario(shard.torrent_id, shard.options),
            shard.seed,
            shard.options,
            trace_recorder=recorder,
        )
        instrumentation = harness.run()
    except BaseException:
        # Never leave half-written tmp traces behind a crash/timeout.
        recorder.close()
        if trace_tmp is not None:
            try:
                trace_tmp.unlink()
            except OSError:
                pass
        raise
    fingerprint = recorder.close()
    wall = time.perf_counter() - started
    record = {
        "key": key,
        "shard_id": shard.shard_id,
        "status": "ok",
        "cache_hit": False,
        "wall_seconds": round(wall, 4),
        "trace_fingerprint": fingerprint,
        "trace_events": recorder.events_emitted,
        "summary": run_summary(harness, instrumentation, fingerprint),
    }
    record.update(shard.as_payload())
    if cache is not None:
        cache.store(key, record, trace_tmp=trace_tmp)
    return record, (instrumentation if want_instrumentation else None)


def run_summary(
    harness, instrumentation: Instrumentation, fingerprint: Optional[str]
) -> dict:
    """The swarm-level facts a claim reads beside the local peer's trace
    (``Run.summary``): a shard's record stores them, and ``repro run
    --claims`` renders from the same dict."""
    seeds, leechers = harness.swarm.seeds_and_leechers()
    return {
        "first_full_copy_at": harness.swarm.result.first_full_copy_at,
        "final_seeds": seeds,
        "final_leechers": leechers,
        "local_completed_at": instrumentation.seed_state_at,
        "mean_download_time": harness.swarm.result.mean_download_time(),
        "local_address": harness.local_peer.address,
        "trace_fingerprint": fingerprint,
    }


def run_shard_payload(payload: dict) -> dict:
    """Worker-process entry point: rebuild the shard and execute it.

    ``payload["resume"]`` (default False) is the run's own ``resume``.
    When set, a retry of a shard whose crashed worker had already
    committed it returns the cached record instead of recomputing, so
    duplicate completion is idempotent.  A ``--fresh`` run clears it, so
    no worker serves a cached entry.
    """
    shard = ShardSpec.from_payload(payload)
    cache = (
        ShardCache(payload["cache_root"]) if payload.get("cache_root") else None
    )
    record, __ = execute_shard(
        shard, cache=cache, resume=bool(payload.get("resume"))
    )
    return record


def _run_guarded(executor_fn: Callable[[dict], dict], payload: dict) -> dict:
    """What actually runs in the worker: re-seed, arm the timeout, go.

    Also used verbatim for ``workers=1`` inline execution, so every
    dispatch path shares every semantic (including the timeout).  The
    interval timer only arms in a main thread (signals are
    process-wide): a campaign run from a helper thread executes
    unarmed.
    """
    random.seed(payload["seed"] ^ _RESEED_SALT)
    timeout = payload.get("timeout")
    armed = (
        timeout is not None
        and hasattr(signal, "setitimer")
        and threading.current_thread() is threading.main_thread()
    )
    if armed:
        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        return executor_fn(payload)
    finally:
        if armed:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)


@dataclass
class _PendingShard:
    shard: ShardSpec
    key: str
    payload: dict
    attempts: int = 0
    errors: List[str] = field(default_factory=list)


@dataclass
class CampaignResult:
    """Everything a campaign run produced, manifest included."""

    spec: CampaignSpec
    manifest: dict
    records: Dict[str, dict]
    cache_dir: Optional[Path]

    @property
    def counts(self) -> dict:
        return self.manifest["counts"]

    @property
    def fingerprint(self) -> str:
        return self.manifest["manifest_fingerprint"]

    def failed_shards(self) -> List[dict]:
        return [
            entry
            for entry in self.manifest["shards"]
            if entry["status"] != "ok"
        ]


def manifest_fingerprint(shard_entries: List[dict]) -> str:
    """Digest over the scheduling-independent facts of a campaign.

    Covers what was computed (shard identity, content key, seed, status,
    trace fingerprint) and nothing about how (wall-clock, attempts,
    cache hits, worker count) — so a 1-worker fresh run, a 4-worker
    fresh run and a fully cached re-run all agree.
    """
    import hashlib

    stable = sorted(
        (
            entry["shard_id"],
            entry["key"],
            entry["seed"],
            entry["status"],
            entry.get("trace_fingerprint"),
        )
        for entry in shard_entries
    )
    canonical = json.dumps(stable, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class CampaignRunner:
    """Execute a campaign spec, cache-first, at ``workers`` processes.

    ``backend`` is ``"local"``, or ``"worker-pool[:spawn=N]"``: the same
    process pool at N workers (any other parameter is a ``ValueError``).
    That second spelling exists only for the benchmark suite's
    ``campaign`` workload, which still names it; it goes when that call
    changes to ``workers=N`` (ROADMAP item 1).  The manifest records the
    worker count that ran.

    ``workers < 1``, ``retries < 0`` and a ``timeout`` that is set but
    not finite and > 0 raise ``ValueError``: none of them describes a
    campaign that can run (``setitimer`` rejects a negative or NaN
    timeout in every shard, and takes 0 to mean "no timeout").
    """

    def __init__(
        self,
        spec: CampaignSpec,
        cache_dir: Optional[str] = None,
        workers: int = 1,
        timeout: Optional[float] = None,
        retries: int = 1,
        executor: Callable[[dict], dict] = run_shard_payload,
        progress: Optional[Callable[[str], None]] = None,
        backend: str = "local",
    ) -> None:
        from repro.campaign.dispatch import resolve_backend

        if workers < 1:
            raise ValueError("workers must be >= 1, not %d" % workers)
        if retries < 0:
            raise ValueError("retries must be >= 0, not %d" % retries)
        if timeout is not None and not (math.isfinite(timeout) and timeout > 0):
            raise ValueError("timeout must be finite and > 0, not %r" % timeout)
        self.spec = spec
        self.timeout = timeout
        self.retries = retries
        self.progress = progress or (lambda message: None)
        # Built first, so a bad spec fails before the cache exists.
        self.dispatch = resolve_backend(
            backend, workers=workers, executor=executor
        )
        self.workers = self.dispatch.workers
        self.cache = ShardCache(cache_dir) if cache_dir is not None else None

    # -- execution ---------------------------------------------------------

    def run(
        self, resume: bool = True, shard_filter: Optional[str] = None
    ) -> CampaignResult:
        from repro.campaign.dispatch import schedule_shards

        shards = expand_spec(self.spec, shard_filter=shard_filter)
        records: Dict[str, dict] = {}
        by_id = {}
        durations = DurationBook(
            self.cache.root if self.cache is not None else None
        )
        for shard in shards:
            key = shard_cache_key(shard)
            if self.cache is not None and resume:
                cached = self.cache.load(key)
                if cached is not None:
                    record = dict(cached)
                    record["cache_hit"] = True
                    records[shard.shard_id] = record
                    self.progress("cached   %s" % shard.shard_id)
                    continue
            payload = shard.as_payload()
            payload["timeout"] = self.timeout
            if self.cache is not None:
                payload["cache_root"] = str(self.cache.root)
            payload["resume"] = resume
            by_id[shard.shard_id] = _PendingShard(
                shard=shard, key=key, payload=payload
            )

        # Cache-aware scheduling: longest shard first, by recorded
        # duration when this cache has seen the shard before, by the
        # piece_count x peers estimate when cold.  Pure reordering —
        # the manifest fingerprint is scheduling-order-independent.
        pending = [
            by_id[shard.shard_id]
            for shard in schedule_shards(
                [item.shard for item in by_id.values()], durations
            )
        ]

        executed = len(pending)
        if pending:
            def on_success(item: _PendingShard, record: dict) -> None:
                item.attempts += 1
                self._resolve(item, record, records)
                if record.get("wall_seconds") and not record.get("cache_hit"):
                    durations.record(item.shard.shard_id, record["wall_seconds"])

            def on_error(item: _PendingShard, error: BaseException) -> bool:
                return self._absorb_error(item, error, records)

            self.dispatch.execute(pending, on_success, on_error)
            durations.save()

        manifest = self._build_manifest(shards, records, executed)
        if self.cache is not None:
            manifest_path = self.cache.root / MANIFEST_NAME
            manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
        return CampaignResult(
            spec=self.spec,
            manifest=manifest,
            records=records,
            cache_dir=self.cache.root if self.cache is not None else None,
        )

    def _resolve(self, pending: _PendingShard, record: dict, records: dict) -> None:
        record.setdefault("shard_id", pending.shard.shard_id)
        record.setdefault("key", pending.key)
        record.update(
            {k: v for k, v in pending.shard.as_payload().items() if k not in record}
        )
        record["attempts"] = pending.attempts
        records[pending.shard.shard_id] = record
        self.progress(
            "%-8s %s (attempt %d)"
            % (record["status"], pending.shard.shard_id, pending.attempts)
        )

    def _failure_record(self, pending: _PendingShard, status: str) -> dict:
        return {
            "status": status,
            "cache_hit": False,
            "errors": list(pending.errors),
            "trace_fingerprint": None,
        }

    def _absorb_error(
        self, pending: _PendingShard, error: BaseException, records: dict
    ) -> bool:
        """Charge one attempt; resolve to a failure record when spent.

        Returns True when the shard is finished (gave up), False when it
        should be retried.
        """
        pending.attempts += 1
        pending.errors.append("%s: %s" % (type(error).__name__, error))
        if isinstance(error, ShardTimeout):
            # Deterministic overrun: retrying would time out again.
            self._resolve(pending, self._failure_record(pending, "timeout"), records)
            return True
        if pending.attempts > self.retries:
            self._resolve(pending, self._failure_record(pending, "failed"), records)
            return True
        return False

    # -- manifest ----------------------------------------------------------

    def _build_manifest(
        self, shards: List[ShardSpec], records: Dict[str, dict], executed: int
    ) -> dict:
        entries = []
        for shard in shards:
            record = records.get(shard.shard_id)
            if record is None:  # pragma: no cover - defensive
                record = {
                    "shard_id": shard.shard_id,
                    "key": shard_cache_key(shard),
                    "status": "missing",
                    "cache_hit": False,
                }
                record.update(shard.as_payload())
            entry = {
                "shard_id": record["shard_id"],
                "key": record["key"],
                "torrent_id": record.get("torrent_id"),
                "scenario": record.get("scenario"),
                "replicate": record.get("replicate"),
                "seed": record.get("seed"),
                "status": record["status"],
                "cache_hit": bool(record.get("cache_hit")),
                "attempts": record.get("attempts", 0),
                "wall_seconds": record.get("wall_seconds"),
                "trace_fingerprint": record.get("trace_fingerprint"),
            }
            if record.get("errors"):
                entry["errors"] = record["errors"]
            entries.append(entry)
        entries.sort(key=lambda entry: entry["shard_id"])
        counts = {
            "shards": len(entries),
            "ok": sum(1 for e in entries if e["status"] == "ok"),
            "failed": sum(1 for e in entries if e["status"] == "failed"),
            "timeout": sum(1 for e in entries if e["status"] == "timeout"),
            "cache_hits": sum(1 for e in entries if e["cache_hit"]),
            "executed": executed,
        }
        return {
            "schema": MANIFEST_SCHEMA_VERSION,
            "campaign": self.spec.describe(),
            "workers": self.workers,
            "counts": counts,
            "shards": entries,
            "manifest_fingerprint": manifest_fingerprint(entries),
        }
