"""One fresh measuring process: set up a workload, run passes for a
budget, check every pass, print one JSON object.

``run.py`` starts this file as a subprocess (never imports it), so that
imports, allocator state and caches are paid for — and measured as
``setup_s`` — exactly as a user's own process would pay for them.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True,
                        help="seconds of timed passes to aim for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--max-passes", type=int, default=None)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="parent's time.monotonic() just before the spawn")
    parser.add_argument("--spawn-calibration", type=float, nargs="+", required=True,
                        help="parent's calibration readings just before the spawn")
    args = parser.parse_args(argv)

    from metrics import PassClock, calibrate, host_factor
    from tracing import Tracer, install
    from workloads import WORKLOADS

    tracer = None
    if args.trace:
        tracer = Tracer()
        # Raises MissingEntryPoint (non-zero exit, name in the message)
        # if src/ renamed anything the layer table depends on.
        install(tracer)

    workload = WORKLOADS[args.workload](args.seed, args.size, args.workdir, tracer)
    passes = []
    try:
        workload.setup()
        for __ in range(workload.warmup_passes):
            workload.prepare()
            workload.check(workload.run_pass(PassClock()))
            workload.passes += 1
        workload.prepare()
        # time.monotonic() is CLOCK_MONOTONIC, shared with the parent.
        setup_raw_s = time.monotonic() - args.spawned_at
        calibrate()  # the first reading in a process runs on cold caches
        setup_s = setup_raw_s * host_factor(
            args.spawn_calibration + [calibrate() for __ in range(3)]
        )
        measured = 0.0
        while True:
            gc.collect()
            if tracer is not None:
                tracer.reset()
            # Reported in host-normalised seconds (README, "Host
            # normalisation"); the raw reading rides along.
            clock = PassClock()
            started = time.perf_counter()
            outcome = workload.run_pass(clock)
            factor = clock.close()
            measured += time.perf_counter() - started
            layers = None
            if tracer is not None:
                layers = outcome.pop("layers", None) or tracer.report()
                layers["self_s"] = {
                    name: seconds * factor
                    for name, seconds in layers["self_s"].items()
                }
            verdict = workload.check(outcome)
            workload.passes += 1
            failures = verdict["failures"]
            passes.append(
                {
                    "wall_s": outcome["wall_s"] * factor,
                    "wall_raw_s": outcome["wall_s"],
                    "calibration_s": clock.readings,
                    "work": outcome["work"],
                    "work_per_s": outcome["work"] / (outcome["headline_s"] * factor),
                    "phases": {
                        # rates shrink on a slow host, times grow
                        name: value / factor if name.endswith("_per_s") else value * factor
                        for name, value in outcome["phases"].items()
                    },
                    "ops": verdict["ops"],
                    "failed": len(failures),
                    "failures": failures[:20],  # enough to see what broke
                    "fingerprint": verdict["fingerprint"],
                    "extras": {
                        name: value * factor if name.endswith(("_us", "_s")) else value
                        for name, value in verdict["extras"].items()
                    },
                    "layers": layers,
                }
            )
            if len(passes) == 1:
                # After the first pass, so that the reading does not
                # depend on how many passes the budget allowed.
                peak_rss_mb = workload.peak_rss_mb()
            typical = measured / len(passes)
            # Start another pass only while at least half of it fits.
            if measured + typical / 2.0 > args.budget:
                break
            if args.max_passes is not None and len(passes) >= args.max_passes:
                break
            workload.prepare()
    finally:
        workload.teardown()

    json.dump(
        {
            "workload": args.workload,
            "seed": args.seed,
            "traced": bool(args.trace),
            "work_unit": workload.work_unit,
            "setup_s": setup_s,
            "setup_raw_s": setup_raw_s,
            "peak_rss_mb": peak_rss_mb,
            "passes": passes,
        },
        sys.stdout,
    )
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
