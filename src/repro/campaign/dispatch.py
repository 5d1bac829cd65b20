"""Campaign dispatch: one backend, inline or a process pool.

The :class:`~repro.campaign.runner.CampaignRunner` expands a spec,
filters it against the content-addressed cache, and hands the surviving
shards to :class:`LocalBackend`: inline execution at ``workers=1``, a
``ProcessPoolExecutor`` above that.  Every path runs a shard through the
same guarded entry point (per-shard ``SIGALRM`` timeout, RNG re-seed)
and drives the same resolve/absorb bookkeeping callbacks on the runner,
so retry budgets, timeout semantics and manifest contents do not depend
on the worker count — and the campaign fingerprint is *pinned* to be
byte-identical across worker counts, scheduling orders and warm-vs-cold
caches (``tests/test_campaign_dispatch.py``).

A worker process that dies abruptly breaks the pool: the shard that
surfaced the crash is charged one attempt and the pool is rebuilt for
the shards still unresolved (until ``retries`` is exhausted).  The cache
makes that retry cheap when the dead worker had already committed: the
payload's ``resume`` serves the committed entry.

**Cache-aware scheduling.**  Pending shards are ordered longest-first
(the classic LPT heuristic) before dispatch: recorded wall-clock
durations from previous runs of the same cache directory
(:class:`~repro.campaign.cache.DurationBook`) when available, a
``piece_count x peers``-based estimate (:func:`estimate_shard_cost`)
for cold shards.  Scheduling affects only wall clock, never results —
the manifest fingerprint is order-independent by construction.
"""

from __future__ import annotations

from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, List, Optional

from repro.campaign.cache import DurationBook
from repro.campaign.runner import _run_guarded, run_shard_payload
from repro.campaign.spec import ShardSpec
from repro.spec_grammar import build_spec
from repro.workloads import resolve_scenario

#: Rough calibration of the cold-shard cost estimate: piece-peer units
#: executed per wall-clock second on the bench host.  Only the *ratios*
#: matter (the scheduler sorts), the absolute scale just keeps the
#: estimates in the same ballpark as recorded wall-seconds.
_COST_UNITS_PER_SECOND = 50_000.0

#: Reference duration the cost estimate is normalised against (the
#: Table-I default run length).
_REFERENCE_DURATION = 3000.0


# ---------------------------------------------------------------------------
# Cache-aware scheduling
# ---------------------------------------------------------------------------

def estimate_shard_cost(shard: ShardSpec) -> float:
    """Cold-shard cost estimate in pseudo-seconds.

    ``piece_count x peers`` of the fully resolved scenario, scaled by
    the simulated duration: the dominant work term is piece-selection
    probes across the peer set over the run window.  Used only when no
    recorded duration exists for the shard's id.
    """
    scenario = resolve_scenario(shard.torrent_id, shard.options)
    peers = scenario.seeds + scenario.leechers + 1
    duration_scale = scenario.duration / _REFERENCE_DURATION
    return scenario.num_pieces * peers * duration_scale / _COST_UNITS_PER_SECOND


def shard_cost(shard: ShardSpec, durations: Optional[DurationBook]) -> float:
    """Scheduling cost: recorded wall seconds, else the cold estimate."""
    if durations is not None:
        recorded = durations.get(shard.shard_id)
        if recorded is not None:
            return recorded
    return estimate_shard_cost(shard)


def schedule_shards(
    shards: List[ShardSpec], durations: Optional[DurationBook] = None
) -> List[ShardSpec]:
    """Longest-shard-first order (stable tiebreak on shard id).

    LPT scheduling: the most expensive shards dispatch first so the
    tail of the campaign is short shards filling idle workers, not one
    giant shard everyone waits on.  Pure reordering — results and the
    manifest fingerprint are scheduling-independent by construction.
    """
    return sorted(
        shards,
        key=lambda shard: (-shard_cost(shard, durations), shard.shard_id),
    )


# ---------------------------------------------------------------------------
# Local backend (inline / process pool)
# ---------------------------------------------------------------------------

class LocalBackend:
    """Inline execution at ``workers=1``, a process pool above that."""

    def __init__(
        self,
        workers: int = 1,
        executor: Callable[[dict], dict] = run_shard_payload,
    ) -> None:
        self.workers = max(1, workers)
        self.executor = executor

    def execute(self, pending: List, resolve, absorb_error) -> None:
        if self.workers == 1:
            self._run_inline(pending, resolve, absorb_error)
        else:
            self._run_pool(pending, resolve, absorb_error)

    def _run_inline(self, pending: List, resolve, absorb_error) -> None:
        """Serial execution in-process — same guard, same bookkeeping."""
        for item in pending:
            while True:
                try:
                    record = _run_guarded(self.executor, dict(item.payload))
                except Exception as error:
                    if absorb_error(item, error):
                        break
                else:
                    resolve(item, record)
                    break

    def _run_pool(self, pending: List, resolve, absorb_error) -> None:
        """Parallel execution; rebuilds the pool after a worker crash."""
        remaining = list(pending)
        resolved_ids = set()

        def done(item):
            resolved_ids.add(item.shard.shard_id)

        while remaining:
            pool = ProcessPoolExecutor(max_workers=self.workers)
            try:
                futures = {
                    pool.submit(_run_guarded, self.executor, dict(item.payload)): item
                    for item in remaining
                }
            except BrokenProcessPool as error:
                # A worker died during submission: charge the first
                # still-unresolved shard (it surfaced the crash) and
                # rebuild — same semantics as a crash mid-round.
                pool.shutdown(wait=False, cancel_futures=True)
                if absorb_error(remaining[0], error):
                    done(remaining[0])
                remaining = [
                    item
                    for item in remaining
                    if item.shard.shard_id not in resolved_ids
                ]
                continue
            try:
                not_done = set(futures)
                while not_done:
                    finished, not_done = wait(not_done, return_when=FIRST_COMPLETED)
                    crashed = []
                    for future in finished:
                        item = futures[future]
                        try:
                            record = future.result()
                        except BrokenProcessPool as error:
                            crashed.append((item, error))
                        except Exception as error:
                            if absorb_error(item, error):
                                done(item)
                        else:
                            resolve(item, record)
                            done(item)
                    if crashed:
                        # The pool is poisoned: charge one attempt to the
                        # shard that surfaced the crash, abandon the rest
                        # of this round (their futures are already dead)
                        # and rebuild.  Shards that finished before the
                        # crash keep their results.
                        if absorb_error(crashed[0][0], crashed[0][1]):
                            done(crashed[0][0])
                        break
            finally:
                pool.shutdown(wait=False, cancel_futures=True)
            remaining = [
                item
                for item in remaining
                if item.shard.shard_id not in resolved_ids
            ]


# ---------------------------------------------------------------------------
# Backend specs
# ---------------------------------------------------------------------------

def resolve_backend(
    spec: str,
    workers: int,
    executor: Callable[[dict], dict] = run_shard_payload,
) -> LocalBackend:
    """Build the backend a spec string names (:data:`BACKENDS`)."""
    return build_spec(
        spec, "dispatch backend", BACKENDS, workers=workers, executor=executor
    )


def _worker_pool_backend(workers, executor, spawn=None):
    workers = workers if spawn is None else int(spawn)
    if workers < 1:
        raise ValueError("worker-pool needs spawn >= 1, not %d" % workers)
    return LocalBackend(workers=workers, executor=executor)


#: Backend constructors by spec name.  ``local`` takes no parameter;
#: ``worker-pool[:spawn=N]`` is the same process pool at N workers
#: (default: ``workers``).  That second spelling exists only because the
#: benchmark suite's ``campaign`` workload still names it; it goes when
#: the suite's call changes to ``workers=N``.
BACKENDS = {"local": LocalBackend, "worker-pool": _worker_pool_backend}
