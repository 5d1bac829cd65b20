#!/usr/bin/env python3
"""Streaming shoot-out: what does in-order delivery cost rarest first?

The paper evaluates BitTorrent as a bulk-download protocol, where local
rarest first wins because *any* piece is as good as any other.  A
streaming consumer breaks that symmetry: pieces are only playable in
order, so pure rarest first — which deliberately downloads out of order
— leaves the player buffering even while the download races ahead.

This script runs the same Table-I torrent as a streaming workload under
the three members of the selection family:

* ``rarest-first``  — the paper's baseline, position-blind;
* ``seq-window``    — rarest first *within* a sliding window ahead of
  the playback position (the classic streaming compromise);
* ``pfs``           — proportional-fair sampling, a probabilistic blend
  of urgency (distance from the playhead) and rarity.

and reports both sides of the trade-off: the playback experience
(startup delay, rebuffer count/time, in-order progress) **and** the
swarm-health metrics the paper cares about (piece-availability entropy,
max-min replication gap) — showing what the streaming strategies give
back in diversity to buy their in-order delivery.

Run:  python examples/streaming_comparison.py
"""

from repro.analysis import (
    playback_summary,
    replication_series,
    summarize_entropy,
)
from repro.sim.config import KIB
from repro.workloads import RunOptions, build_experiment, scaled_copy, scenario_by_id

TORRENT_ID = 2
DURATION = 900.0
PLAYBACK_RATE = 16.0 * KIB  # under the 20 kiB/s leecher upload cap
SEED = 11

STRATEGIES = (
    ("rarest-first", "rarest-first"),
    ("seq-window", "seq-window:window=16"),
    ("pfs", "pfs:urgency=0.95,rarity_bias=1.0"),
)


def run_streaming(selector_spec: str) -> dict:
    scenario = scaled_copy(scenario_by_id(TORRENT_ID), duration=DURATION)
    harness = build_experiment(
        scenario,
        seed=SEED,
        options=RunOptions(selector=selector_spec, playback_rate=PLAYBACK_RATE),
    )
    trace = harness.run(DURATION)

    summary = playback_summary(trace)
    entropy = summarize_entropy(trace)
    series = replication_series(trace, leecher_state_only=True)
    gaps = [
        high - low for low, high in zip(series.min_copies, series.max_copies)
    ]
    return {
        "startup": summary.startup_delay,
        "rebuffers": summary.rebuffer_count,
        "stalled": summary.rebuffer_seconds,
        "finished": summary.finished,
        "in_order": summary.in_order_pieces,
        "pieces": scenario.num_pieces,
        "entropy_ab": entropy.median_local,
        "diversity_gap": sum(gaps) / len(gaps) if gaps else float("nan"),
    }


def fmt_startup(stats: dict) -> str:
    if stats["startup"] is None:
        return "never"
    return "%.0f" % stats["startup"]


def main() -> None:
    scenario = scaled_copy(scenario_by_id(TORRENT_ID), duration=DURATION)
    print("=== streaming piece-selection shoot-out ===")
    print(
        "torrent %d: %d pieces x %d kiB, playback %d kiB/s, %ds horizon\n"
        % (
            TORRENT_ID,
            scenario.num_pieces,
            scenario.piece_size // KIB,
            PLAYBACK_RATE // KIB,
            DURATION,
        )
    )
    header = "%-14s %8s %9s %9s %10s %8s %10s" % (
        "strategy", "startup", "rebuffers", "stall (s)",
        "in-order", "a/b med", "avail. gap",
    )
    print(header)
    print("-" * len(header))
    for name, spec in STRATEGIES:
        stats = run_streaming(spec)
        print(
            "%-14s %8s %9d %9.0f %6d/%-3d %8.2f %10.1f"
            % (
                name,
                fmt_startup(stats),
                stats["rebuffers"],
                stats["stalled"],
                stats["in_order"],
                stats["pieces"],
                stats["entropy_ab"],
                stats["diversity_gap"],
            )
        )
    print(
        "\n=> rarest first maximises entropy but plays back worst: its"
        "\n   in-order prefix grows only by accident.  The windowed"
        "\n   selector starts fastest at a modest diversity cost; pfs"
        "\n   sits between the two.  For bulk downloads the paper's"
        "\n   verdict stands — these strategies only pay off when the"
        "\n   consumer genuinely needs bytes in order."
    )


if __name__ == "__main__":
    main()
