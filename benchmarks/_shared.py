"""Shared machinery for the figure benchmarks.

Several figures analyse the *same* experiment (figures 2 and 3 both come
from torrent 8; figures 4, 5, 6 and 10 from torrent 7; figure 1 sweeps
all 26 torrents and figures 9/11 aggregate the same sweep).  Experiments
are therefore memoised per process: the first benchmark that needs a
trace pays for the simulation, later ones reuse it and only time their
analysis.

Since PR 4 the plain Table-I runs execute through the campaign runner
(:mod:`repro.campaign`): each run is a :class:`~repro.campaign.ShardSpec`
whose derived seed reproduces the historical ``seed + 37 * torrent_id``
stream, so routing through the runner changes nothing about the results
— but it adds two capabilities:

* ``REPRO_CAMPAIGN_CACHE=<dir>`` content-addresses every run into an
  on-disk cache; re-running the benchmarks replays the stored traces
  instead of re-simulating (and a code/config change re-runs exactly the
  invalidated shards).
* ``REPRO_BENCH_WORKERS=<n>`` shards the figure-1/9/11 sweep across
  *n* worker processes (:func:`run_campaign_sweep`); results are
  byte-identical at any worker count.

Set ``REPRO_FAST=1`` to sweep a representative subset of Table I instead
of all 26 torrents (roughly 4x faster; the recorded EXPERIMENTS.md
numbers come from the full sweep).
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    ShardCache,
    ShardSpec,
    derive_shard_seed,
    execute_shard,
)
from repro.instrumentation import Instrumentation, TraceRecorder
from repro.workloads import (
    RunOptions,
    TorrentScenario,
    build_experiment,
    scenario_by_id,
)

RESULTS_DIR = Path(__file__).parent / "results"

DEFAULT_SEED = 3

FAST_SUBSET = (2, 7, 8, 10, 13, 19, 22, 26)

_trace_cache: Dict[Tuple, Tuple[TorrentScenario, Instrumentation, dict]] = {}


def fast_mode() -> bool:
    return os.environ.get("REPRO_FAST", "") not in ("", "0")


def sweep_ids() -> Tuple[int, ...]:
    if fast_mode():
        return FAST_SUBSET
    return tuple(range(1, 27))


def bench_workers() -> int:
    return max(1, int(os.environ.get("REPRO_BENCH_WORKERS", "1")))


def _campaign_cache() -> Optional[ShardCache]:
    root = os.environ.get("REPRO_CAMPAIGN_CACHE")
    return ShardCache(root) if root else None


def _paper_shard(torrent_id: int, seed: int, block_size: Optional[int]) -> ShardSpec:
    """The campaign shard equivalent to a legacy ``seed + 37 * id`` run."""
    return ShardSpec(
        torrent_id=torrent_id,
        scenario="paper",
        replicate=0,
        seed=derive_shard_seed(seed, torrent_id, "paper", 0),
        options=RunOptions(block_size=block_size),
    )


def run_table1_experiment(
    torrent_id: int,
    seed: int = DEFAULT_SEED,
    block_size: Optional[int] = None,
    trace_path: Optional[str] = None,
    **build_kwargs,
) -> Tuple[TorrentScenario, Instrumentation, dict]:
    """Run (or fetch from cache) one Table-I experiment.

    Returns (scenario, finalized trace, summary) where summary carries the
    swarm-level facts the analysis cannot recover from the trace alone.
    Plain runs execute through the campaign runner's shard path (module
    docstring); runs with ``build_kwargs`` (ablation strategies — not
    serialisable into a shard spec) or an explicit *trace_path* keep the
    direct path, and the memoisation cache is bypassed for the latter
    (the trace must observe a live run).
    """
    if build_kwargs or trace_path is not None:
        return _run_direct(torrent_id, seed, block_size, trace_path, **build_kwargs)
    key = (torrent_id, seed, block_size)
    if key in _trace_cache:
        return _trace_cache[key]
    shard = _paper_shard(torrent_id, seed, block_size)
    record, trace = execute_shard(
        shard, cache=_campaign_cache(), want_instrumentation=True
    )
    _trace_cache[key] = (scenario_by_id(torrent_id), trace, record["summary"])
    return _trace_cache[key]


def run_campaign_sweep(
    torrent_ids: Optional[Tuple[int, ...]] = None,
    seed: int = DEFAULT_SEED,
    workers: Optional[int] = None,
) -> Dict[int, Tuple[TorrentScenario, Instrumentation, dict]]:
    """Run the whole figure-1/9/11 sweep as one campaign.

    With more than one worker the shards execute in parallel processes
    and their traces come back through an on-disk cache
    (``REPRO_CAMPAIGN_CACHE`` or a temporary directory); the rebuilt
    instrumentation is exact (differential-replay guarantee), so the
    sweep's figures are byte-identical at any worker count.  Results
    land in the per-process memo, so later benchmarks reuse them.
    """
    torrent_ids = tuple(torrent_ids or sweep_ids())
    workers = bench_workers() if workers is None else max(1, workers)
    missing = [
        tid for tid in torrent_ids if (tid, seed, None) not in _trace_cache
    ]
    if workers == 1 or len(missing) <= 1:
        for torrent_id in torrent_ids:
            run_table1_experiment(torrent_id, seed=seed)
    elif missing:
        cache = _campaign_cache()
        scratch = None
        if cache is None:
            scratch = tempfile.TemporaryDirectory(prefix="repro-sweep-")
            cache = ShardCache(scratch.name)
        try:
            spec = CampaignSpec(
                name="bench-sweep",
                torrent_ids=tuple(missing),
                campaign_seed=seed,
            )
            CampaignRunner(spec, cache_dir=cache.root, workers=workers).run()
            # Workers filled the on-disk cache; this loop only replays.
            for torrent_id in missing:
                record, trace = execute_shard(
                    _paper_shard(torrent_id, seed, None),
                    cache=cache,
                    want_instrumentation=True,
                )
                _trace_cache[(torrent_id, seed, None)] = (
                    scenario_by_id(torrent_id),
                    trace,
                    record["summary"],
                )
        finally:
            if scratch is not None:
                scratch.cleanup()
    return {
        torrent_id: run_table1_experiment(torrent_id, seed=seed)
        for torrent_id in torrent_ids
    }


def _run_direct(
    torrent_id: int,
    seed: int,
    block_size: Optional[int],
    trace_path: Optional[str],
    **build_kwargs,
) -> Tuple[TorrentScenario, Instrumentation, dict]:
    """The pre-campaign path: live run, optional explicit trace file."""
    key = (torrent_id, seed, block_size, tuple(sorted(build_kwargs)))
    if trace_path is None and key in _trace_cache:
        return _trace_cache[key]
    scenario = scenario_by_id(torrent_id)
    recorder = TraceRecorder(trace_path) if trace_path is not None else None
    # Give every torrent its own RNG stream: several Table-I torrents
    # scale to near-identical parameters, and a shared seed would make
    # them literally the same simulation.
    harness = build_experiment(
        scenario,
        seed=derive_shard_seed(seed, torrent_id, "paper", 0),
        block_size=block_size,
        trace_recorder=recorder,
        **build_kwargs,
    )
    trace = harness.run()
    seeds, leechers = harness.swarm.seeds_and_leechers()
    summary = {
        "first_full_copy_at": harness.swarm.result.first_full_copy_at,
        "final_seeds": seeds,
        "final_leechers": leechers,
        "local_completed_at": trace.seed_state_at,
        "mean_download_time": harness.swarm.result.mean_download_time(),
        "local_address": harness.local_peer.address,
    }
    if recorder is not None:
        summary["trace_fingerprint"] = recorder.close()
        return (scenario, trace, summary)
    _trace_cache[key] = (scenario, trace, summary)
    return _trace_cache[key]


def write_result(name: str, text: str) -> None:
    """Persist a regenerated table/series next to the benchmarks and echo
    it to stdout (visible with ``pytest -s`` or on failure)."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / ("%s.txt" % name)
    path.write_text(text)
    print("\n" + text)
