"""The repo benchmark: seven workloads, one command.

    python3 benchmarks/suite/run.py --workload mega_swarm --seed 42 \\
        --seconds 12 --trace 0

runs one workload in three fresh child processes (``child.py``), each
measuring a third of ``--seconds``, checks every pass's outputs, prints
each metric by name with unit, min, median and IQR, and ends with one
JSON line: ``{"correct", "attempted", "failed", "metrics"}`` holding the
end-to-end metrics of ``BENCHMARK.json``.  With ``--trace 1`` it runs
one plain child and one child with the timing shims of ``tracing.py``
installed, and the JSON line holds the per-layer metrics instead.

Without ``--workload`` it does both for all seven workloads.
``--selftest`` runs tiny versions in seconds and checks determinism.
``--output FILE`` appends the full report (every child, every pass) as
one JSON line per run, the input of ``compare.py``.

See README.md in this directory for what every name means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional

SUITE_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(SUITE_DIR))

from metrics import (  # noqa: E402
    END_TO_END,
    PHASES,
    calibrate,
    per_layer_metrics,
    summarize,
)
from tracing import layer_stems  # noqa: E402
from workloads import WORKLOADS as WORKLOAD_CLASSES  # noqa: E402

WORKLOADS = tuple(WORKLOAD_CLASSES)
REPO_ROOT = SUITE_DIR.parent.parent
SRC_DIR = REPO_ROOT / "src"
WORK_ROOT = REPO_ROOT / ".bench_work"
CHILDREN = 3
#: A run must end within the contract's 180 s whatever happens.
RUN_DEADLINE = 160.0
NOISE_LIMIT = 0.10


class BenchmarkError(RuntimeError):
    """The run cannot produce a result (reported on stderr, exit 2)."""


@contextmanager
def scratch_dir(label: str):
    """A directory under .bench_work/ for one run, removed afterwards."""
    workdir = WORK_ROOT / ("%s-%d" % (label, os.getpid()))
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        yield workdir
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run is using it


def run_child(workload: str, seed: int, budget: float, trace: int, size: str,
              workdir: Path, deadline: float,
              max_passes: Optional[int] = None) -> dict:
    """One child process, bracketed by calibration readings; killed at
    *deadline* (a ``time.monotonic()`` value)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC_DIR), env.get("PYTHONPATH")) if part
    )
    env["PYTHONHASHSEED"] = "0"
    command = [
        sys.executable, str(SUITE_DIR / "child.py"),
        "--workload", workload, "--seed", str(seed),
        "--budget", repr(budget), "--trace", str(trace), "--size", size,
        "--workdir", str(workdir),
    ]
    if max_passes is not None:
        command += ["--max-passes", str(max_passes)]
    # Set-up is short, so its normalisation rests on three readings here
    # and three in the child right after it.
    readings = [calibrate() for __ in range(3)]
    before = median(readings)
    command += ["--spawn-calibration"] + [repr(reading) for reading in readings]
    command += ["--spawned-at", repr(time.monotonic())]
    # Its own process group: a child that overruns is killed together
    # with the tracker server or campaign workers it started.
    child = subprocess.Popen(
        command, env=env, stdout=subprocess.PIPE, start_new_session=True
    )
    try:
        stdout, __ = child.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise BenchmarkError("%s child overran the run's deadline" % workload)
    after = calibrate()
    if child.returncode != 0:
        raise BenchmarkError(
            "%s child exited with code %d" % (workload, child.returncode)
        )
    report = json.loads(stdout.decode().strip().splitlines()[-1])
    report["calibration_s"] = [before, after]
    report["noisy"] = abs(after - before) / min(before, after) > NOISE_LIMIT
    return report


def check_fingerprints(children: List[dict], stateful: bool) -> List[str]:
    """Same seed, same outputs: across passes and across children."""
    problems = []
    reference: Dict[int, str] = {}
    for child in children:
        for index, entry in enumerate(child["passes"]):
            # A tracker's registry carries over from pass to pass, so
            # pass k is compared with pass k; a simulation starts every
            # pass from scratch, so every pass is compared with pass 0.
            key = index if stateful else 0
            expected = reference.setdefault(key, entry["fingerprint"])
            if entry["fingerprint"] != expected:
                problems.append(
                    "pass %d fingerprint %s differs from %s"
                    % (index, entry["fingerprint"][:12], expected[:12])
                )
    return problems


def end_to_end(children: List[dict]) -> Dict[str, List[float]]:
    passes = [entry for child in children for entry in child["passes"]]
    return {
        "setup_s": [child["setup_s"] for child in children],
        "wall_s": [entry["wall_s"] for entry in passes],
        "work_per_s": [entry["work_per_s"] for entry in passes],
        "peak_rss_mb": [child["peak_rss_mb"] for child in children],
    }


def per_layer(plain: dict, traced: dict) -> Dict[str, float]:
    """The per-layer vector of one traced child (plus its plain twin)."""
    passes = traced["passes"]
    first = passes[0]["layers"]
    values: Dict[str, float] = {}
    for stem in layer_stems():
        values[stem + "_calls"] = first["calls"].get(stem, 0)
        values[stem + "_self_s"] = median(
            entry["layers"]["self_s"].get(stem, 0.0) for entry in passes
        )
    extras = passes[0]["extras"]
    counters = first["counters"]
    ticks = extras.get("sim.swarm.ticks", 0)
    allocations = values["sim.bandwidth.allocate_calls"]
    if ticks:
        values["sim.bandwidth.flow_cache_hit_ratio"] = 1.0 - allocations / ticks
    if allocations:
        values["sim.bandwidth.flows_mean"] = (
            counters.get("sim.bandwidth.flows", 0) / allocations
        )
    requests = values["core.piece_picker.next_request_calls"]
    if requests:
        values["core.piece_picker.next_request_hit_ratio"] = (
            counters.get("core.piece_picker.next_request_hits", 0) / requests
        )
    for name, value in extras.items():
        if name != "sim.swarm.ticks":
            values[name] = value
    traced_wall = median(entry["wall_s"] for entry in passes)
    plain_wall = median(entry["wall_s"] for entry in plain["passes"])
    attributed = median(
        sum(
            seconds for stem, seconds in entry["layers"]["self_s"].items()
            # the binary re-run happens after the timed phases
            if not stem.startswith("instrumentation.bintrace.")
        )
        for entry in passes
    )
    loop = values["sim.engine.loop_self_s"]
    values["host.calibration_s"] = median(
        plain["calibration_s"] + traced["calibration_s"]
    )
    values["host.tracing_overhead_pct"] = 100.0 * (traced_wall / plain_wall - 1.0)
    values["host.traced_wall_s"] = traced_wall
    # Share of the traced wall that a named layer other than the bare
    # event loop accounts for; the acceptance bar is 0.9 on the three
    # simulator workloads.
    values["host.attributed_share"] = (attributed - loop) / traced_wall
    for name, __, __ in PHASES:
        samples = [
            entry["phases"][name]
            for entry in plain["passes"]
            if name in entry["phases"]
        ]
        values["phase." + name] = median(samples) if samples else 0.0
    return values


def print_summary(workload: str, children: List[dict], series) -> None:
    passes = sum(len(child["passes"]) for child in children)
    unit = children[0]["work_unit"]
    print("== %s: %d children, %d passes, work unit = %s"
          % (workload, len(children), passes, unit))
    print("   %-28s %-14s %12s %12s %12s" % ("metric", "unit", "min", "median", "iqr"))
    for name, metric_unit, __, __ in END_TO_END:
        stats = summarize(series[name])
        shown = unit + "/s" if name == "work_per_s" else metric_unit
        print("   %-28s %-14s %12.4f %12.4f %12.4f"
              % (name, shown, stats["min"], stats["median"], stats["iqr"]))
    for name, phase_unit, __ in PHASES:
        samples = [
            entry["phases"][name]
            for child in children if not child["traced"]
            for entry in child["passes"] if name in entry["phases"]
        ]
        if samples:
            stats = summarize(samples)
            print("   %-28s %-14s %12.4f %12.4f %12.4f"
                  % (name, phase_unit, stats["min"], stats["median"], stats["iqr"]))
    for index, child in enumerate(children):
        before, after = child["calibration_s"]
        print("   child %d: host.calibration_s %.4f -> %.4f%s"
              % (index, before, after, "  NOISY" if child["noisy"] else ""))


def print_layers(values: Dict[str, float]) -> None:
    wall = values["host.traced_wall_s"]
    print("   %-46s %10s %10s %7s" % ("layer", "calls", "self_s", "share"))
    rows = [
        (values[stem + "_self_s"], stem) for stem in layer_stems()
        if values[stem + "_calls"]
    ]
    for self_s, stem in sorted(rows, reverse=True):
        print("   %-46s %10d %10.4f %6.1f%%"
              % (stem, values[stem + "_calls"], self_s, 100.0 * self_s / wall))
    for name, unit, __ in per_layer_metrics():
        if name.endswith(("_calls", "_self_s")) or name.startswith("phase."):
            continue
        print("   %-46s %21.4f %s" % (name, values.get(name, 0.0), unit))


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 output: Optional[Path] = None) -> dict:
    """All children of one (workload, seed, trace) run; returns the
    contract's result object."""
    calibrate()  # the first reading in a process runs on cold caches
    if trace:
        plan = [(0, seconds / 3.0), (1, 2.0 * seconds / 3.0)]
    else:
        plan = [(0, seconds / CHILDREN)] * CHILDREN
    deadline = time.monotonic() + RUN_DEADLINE
    with scratch_dir(workload) as workdir:
        children = [
            run_child(workload, seed, budget, traced, "full", workdir, deadline)
            for traced, budget in plan
        ]

    problems = check_fingerprints(
        children, WORKLOAD_CLASSES[workload].carries_state
    )
    # one more operation: "every pass of every child agrees"
    attempted = sum(e["ops"] for c in children for e in c["passes"]) + 1
    failed = sum(e["failed"] for c in children for e in c["passes"]) + bool(problems)
    for child in children:
        for entry in child["passes"]:
            problems.extend(entry["failures"])
    series = end_to_end([c for c in children if not c["traced"]])
    print_summary(workload, children, series)
    if trace:
        layers = per_layer(children[0], children[1])
        print_layers(layers)
        metrics = {
            name: {"value": layers.get(name, 0.0), "unit": unit}
            for name, unit, __ in per_layer_metrics()
        }
    else:
        metrics = {
            name: {"value": median(series[name]), "unit": unit}
            for name, unit, __, __ in END_TO_END
        }
    fingerprint = children[0]["passes"][0]["fingerprint"]
    print("   fingerprint %s  ops %d  failed_ops %d"
          % (fingerprint, attempted, failed))
    for problem in problems[:20]:
        print("   FAILED: %s" % problem)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    if output is not None:
        with open(output, "a") as handle:
            json.dump(
                {
                    "workload": workload, "seed": seed, "seconds": seconds,
                    "trace": trace, "fingerprint": fingerprint,
                    "result": result,
                    "end_to_end": {k: summarize(v) for k, v in series.items()},
                    "children": children,
                },
                handle,
            )
            handle.write("\n")
    return result


def check_manifest() -> List[str]:
    """BENCHMARK.json must name exactly what this code reports."""
    manifest = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    problems = []
    declared = [(m["name"], m["unit"], m["better"], m["bound"])
                for m in manifest["end_to_end"]]
    if declared != list(END_TO_END):
        problems.append("BENCHMARK.json end_to_end differs from metrics.END_TO_END")
    declared = [(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]]
    if declared != per_layer_metrics():
        problems.append("BENCHMARK.json per_layer differs from metrics.per_layer_metrics()")
    if tuple(w["name"] for w in manifest["workloads"]) != WORKLOADS:
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    return problems


def selftest(seed: int) -> int:
    """Tiny versions of all seven workloads: twice on one seed (traced,
    so call counts are compared too), once on the next seed."""
    problems = check_manifest()
    calibrate()  # the first reading in a process runs on cold caches
    for workload in WORKLOADS:
        deadline = time.monotonic() + RUN_DEADLINE
        with scratch_dir("selftest-" + workload) as workdir:
            first, second, other = (
                run_child(workload, s, 0.0, traced, "tiny", workdir, deadline,
                          max_passes=1)
                for s, traced in ((seed, 1), (seed, 1), (seed + 1, 0))
            )
        a, b, c = (child["passes"][0] for child in (first, second, other))
        status = []
        if a["fingerprint"] != b["fingerprint"]:
            status.append("same seed, different fingerprints")
        if a["layers"]["calls"] != b["layers"]["calls"]:
            status.append("same seed, different call counts")
        if a["work"] != b["work"] or a["ops"] != b["ops"]:
            status.append("same seed, different work/ops counts")
        if a["fingerprint"] == c["fingerprint"]:
            status.append("different seed, same fingerprint")
        for entry in (a, b, c):
            status.extend(entry["failures"])
        print("selftest %-16s %s  ops=%d work=%s fingerprint=%s"
              % (workload, "ok" if not status else "FAILED",
                 a["ops"], a["work"], a["fingerprint"][:12]))
        problems.extend("%s: %s" % (workload, line) for line in status)
    for problem in problems:
        print("selftest FAILED: %s" % problem)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=12.0,
                        help="timed seconds per run, split over the children")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics; 1: per-layer metrics "
                        "(default with --workload all: both)")
    parser.add_argument("--output", type=Path, default=None,
                        help="append the full report as one JSON line per run")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        print("run.py: %s holds no repro package; run from a checkout of "
              "the repository" % SRC_DIR, file=sys.stderr)
        return 2
    try:
        if args.selftest:
            return selftest(args.seed)
        if args.workload != "all":
            result = run_workload(
                args.workload, args.seed, args.seconds, args.trace or 0,
                output=args.output,
            )
            print(json.dumps(result))
            return 0
        results = {}
        for workload in WORKLOADS:
            for trace in ((0, 1) if args.trace is None else (args.trace,)):
                results["%s/trace%d" % (workload, trace)] = run_workload(
                    workload, args.seed, args.seconds, trace, output=args.output
                )
        failed = sum(result["failed"] for result in results.values())
        print(json.dumps({
            "correct": failed == 0,
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": failed,
            "metrics": {key: r["metrics"] for key, r in results.items()},
        }))
        return 0
    except BenchmarkError as exc:
        print("run.py: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
