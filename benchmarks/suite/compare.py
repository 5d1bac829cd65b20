"""Compare two sets of benchmark runs, metric by metric, workload by workload.

    python3 benchmarks/suite/compare.py parent.jsonl change.jsonl

Each file is what ``run.py --output FILE`` appends to: one JSON line per
``--trace 0`` run.  For every workload x end-to-end metric the script
prints the parent's and the change's median and quartiles over their
runs, and one verdict:

``unresolved``  either side's run-to-run spread (IQR / median) is wider
                than the metric's bound: the metric cannot tell the two
                apart, which is not the same as "unchanged";
``regressed``   the change's median is worse than the parent's by more
                than the bound;
``improved``    the change wins at least nine tenths of the pairs (run
                ``i`` of one file against run ``i`` of the other, ties
                counting for neither side) AND the medians differ by
                more than the parent's own IQR; needs at least ten
                pairs;
``flat``        none of the above.

Exit code 1 if any row regressed, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from metrics import END_TO_END, quartiles  # noqa: E402

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path: Path) -> Dict[Tuple[str, str], List[float]]:
    """{(workload, metric): one value per run, in file order}."""
    series: Dict[Tuple[str, str], List[float]] = {}
    with open(path) as handle:
        for line in handle:
            if not line.strip():
                continue
            run = json.loads(line)
            if run["trace"]:
                continue
            for name, metric in run["result"]["metrics"].items():
                series.setdefault((run["workload"], name), []).append(metric["value"])
    return series


def verdict(parent: List[float], change: List[float], better: str,
            bound: float) -> str:
    p_q1, p_median, p_q3 = quartiles(parent)
    c_q1, c_median, c_q3 = quartiles(change)
    if (p_q3 - p_q1) / p_median > bound or (c_q3 - c_q1) / c_median > bound:
        return "unresolved"
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (c_median - p_median)
    if -gain > bound * p_median:
        return "regressed"
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    if (
        len(pairs) >= MIN_PAIRS
        and wins >= WIN_SHARE * (wins + losses)
        and wins > 0
        and gain > p_q3 - p_q1
    ):
        return "improved"
    return "flat"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    parent, change = load(args.parent), load(args.change)
    regressed = False
    print("%-16s %-12s %4s %12s %12s %12s | %12s %12s %12s  %s"
          % ("workload", "metric", "n", "parent q1", "median", "q3",
             "change q1", "median", "q3", "verdict"))
    for key in sorted(parent):
        workload, name = key
        if key not in change:
            print("%-16s %-12s missing from %s" % (workload, name, args.change))
            continue
        better, bound = next((b, d) for n, __, b, d in END_TO_END if n == name)
        result = verdict(parent[key], change[key], better, bound)
        regressed = regressed or result == "regressed"
        print("%-16s %-12s %4d %12.4f %12.4f %12.4f | %12.4f %12.4f %12.4f  %s"
              % ((workload, name, min(len(parent[key]), len(change[key])))
                 + quartiles(parent[key]) + quartiles(change[key]) + (result,)))
    return 1 if regressed else 0


if __name__ == "__main__":
    raise SystemExit(main())
