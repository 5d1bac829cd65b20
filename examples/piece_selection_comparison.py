#!/usr/bin/env python3
"""Piece-selection shoot-out: rarest first vs its proposed replacements.

The paper's central claim is that local rarest first is "enough": random
selection is worse, and the extra machinery of global knowledge or
network coding buys almost nothing on real (well-connected, 80-peer-set)
torrents.  This script compares the strategies twice:

* in a **steady-state** torrent (random partial bitfields, the regime of
  §IV-A.2.b), where every strategy reaches high entropy but rarest first
  keeps the piece-replication balance much tighter; and
* in a **transient** flash crowd behind one slow seed (§IV-A.2.a), where
  selection discipline decides how well the swarm tracks the source and
  sequential selection collapses.

The idealised network-coding comparator (repro.coding) bounds what any
piece selection could achieve.

Run:  python examples/piece_selection_comparison.py
"""

from repro.analysis.ablations import (
    A1_CROWD as CROWD,
    A1_PIECES as NUM_PIECES,
    A1_PIECE_SIZE as PIECE_SIZE,
    A1_SEED_UPLOAD as SEED_UPLOAD,
)
from repro.analysis.claims import select_claims
from repro.sim.config import KIB

#: The swarm is ablation A1's (DESIGN §4), built in one place: the
#: registry's builder runs every strategy in both regimes plus the coding
#: comparator, at the seed the committed result file pins.
(A1,) = select_claims("A1")

HEADER = "%-16s %10s %10s %12s %12s" % (
    "strategy", "a/b med", "c/d med", "avail. gap", "mean dl (s)"
)


def print_regime(strategies: dict) -> None:
    print(HEADER)
    print("-" * len(HEADER))
    for name, stats in strategies.items():
        print(
            "%-16s %10.2f %10.2f %12.1f %12.0f"
            % (name, stats["ab"], stats["cd"], stats["gap"], stats["mean_dl"])
        )


def main() -> None:
    print("=== piece selection shoot-out ===")
    print(
        "swarm: 1 seed @ %d kiB/s + %d leechers, %d pieces x %d kiB\n"
        % (SEED_UPLOAD // KIB, CROWD, NUM_PIECES, PIECE_SIZE // KIB)
    )
    results = A1.build(A1.pinned_seed)

    print("--- steady state (torrent met mid-life) ---")
    print_regime(results["steady"])
    print(
        "=> every strategy reaches high entropy in steady state, but\n"
        "   rarest first keeps the max-min replication gap far tighter.\n"
    )

    print("--- transient state (flash crowd, empty leechers) ---")
    print_regime(results["transient"])
    print(
        "%-16s %10s %10s %12s %12.0f   (idealised upper bound)"
        % ("network-coding", "1.00*", "1.00*", "-", results["coding_mean_dl"])
    )
    print(
        "\n* coding interest is ideal by construction (repro.coding docs)."
        "\n=> rarest first matches the global-knowledge oracle and sits"
        "\n   close to the coding bound; sequential selection collapses in"
        "\n   the transient phase — replacing rarest first 'cannot be"
        "\n   justified' (paper §IV-A.4)."
    )


if __name__ == "__main__":
    main()
