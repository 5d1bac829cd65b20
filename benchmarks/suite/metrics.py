"""Metric names, units and the small statistics both CLIs share.

``BENCHMARK.json`` lists the same names; ``run.py --selftest`` fails if
the two drift apart.
"""

from __future__ import annotations

import time
from statistics import median, quantiles
from typing import Dict, List, Sequence, Tuple

import numpy

from tracing import layer_stems

#: What the calibration loop takes on the bench host in its usual state.
#: Timings are reported as if it always took exactly this long.
REFERENCE_CALIBRATION_S = 0.0275

#: (name, unit, better, bound).  Every workload reports every one of
#: these: ``work_per_s`` is the rate of the workload's headline phase in
#: its own unit of work (``WORK_UNITS``), ``wall_s`` the whole timed pass.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("work_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.10),
)

#: The ISSUE's workload-specific end-to-end rates.  The contract wants
#: one end-to-end vector shared by all workloads, so these are reported
#: (from the untraced child) as ``phase.*`` rows of the per-layer table,
#: 0 where a workload has no such phase.
PHASES: Tuple[Tuple[str, str, str], ...] = (
    ("blocks_per_s", "blocks/s", "higher"),
    ("peer_sim_s_per_s", "sim-peer-s/s", "higher"),
    ("trace_write_events_per_s", "events/s", "higher"),
    ("trace_read_events_per_s", "events/s", "higher"),
    ("cold_shards_per_s", "shards/s", "higher"),
    ("pool_shards_per_s", "shards/s", "higher"),
    ("warm_shards_per_s", "shards/s", "higher"),
    ("announces_per_s", "ann/s", "higher"),
    ("rarity_announces_per_s", "ann/s", "higher"),
    ("http_p50_us", "us", "lower"),
    ("udp_p50_us", "us", "lower"),
)

#: Counters and ratios beside the ``*_calls`` / ``*_self_s`` pairs.
LAYER_EXTRAS: Tuple[Tuple[str, str, str], ...] = (
    ("sim.engine.events", "count", "lower"),
    ("sim.swarm.joins", "count", "higher"),
    ("sim.swarm.departures", "count", "higher"),
    ("sim.bandwidth.flow_cache_hit_ratio", "ratio", "higher"),
    ("sim.bandwidth.flows_mean", "count", "lower"),
    ("core.piece_picker.next_request_hit_ratio", "ratio", "higher"),
    ("instrumentation.trace.bytes_written", "bytes", "lower"),
    ("instrumentation.bintrace.bytes_written", "bytes", "lower"),
    ("campaign.dispatch.pool_overhead_s", "s", "lower"),
    ("tracker.service.shed", "count", "lower"),
    ("tracker.service.rejected", "count", "lower"),
    ("tracker.wire.http_p99_us", "us", "lower"),
    ("tracker.wire.udp_p99_us", "us", "lower"),
    ("tracker.wire.server_share", "ratio", "lower"),
    ("host.calibration_s", "s", "lower"),
    ("host.tracing_overhead_pct", "%", "lower"),
    ("host.traced_wall_s", "s", "lower"),
    ("host.attributed_share", "ratio", "higher"),
)


def per_layer_metrics() -> List[Tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in table order."""
    rows: List[Tuple[str, str, str]] = []
    for stem in layer_stems():
        rows.append((stem + "_calls", "count", "lower"))
        rows.append((stem + "_self_s", "s", "lower"))
    rows.extend(LAYER_EXTRAS)
    rows.extend(("phase." + name, unit, better) for name, unit, better in PHASES)
    return rows


def calibrate() -> float:
    """Seconds for a fixed pure-Python + numpy loop (~27 ms).

    Depends on nothing in ``src/``: it measures the host, not the code.
    """
    started = time.perf_counter()
    total = 0
    table = {}
    for index in range(100000):
        total += index * index % 7
        table[index & 1023] = total
    values = numpy.arange(200000, dtype=numpy.float64)
    for __ in range(4):
        values = numpy.sort((values * 1.000001 + 3.0) % 977.0)
    if total < 0 or values[0] < 0:  # keep both results live
        raise AssertionError
    return time.perf_counter() - started


def host_factor(readings: Sequence[float]) -> float:
    """Multiplier turning seconds measured while *readings* were taken
    into host-normalised seconds."""
    return REFERENCE_CALIBRATION_S / (sum(readings) / len(readings))


class PassClock:
    """The clock of one timed pass, which steps out for calibration.

    The host's speed wanders at every timescale from 50 ms to minutes,
    so two readings at the ends of a 2 s pass say little about the
    middle.  Workloads read time through :meth:`now` and call
    :meth:`breathe` wherever they can be interrupted (between sim
    seconds, phases, announce batches); every ``SLICE_EVERY`` seconds
    that takes one calibration reading, whose own duration is hidden
    from :meth:`now`.  The pass is normalised by the mean of all
    readings taken while it ran.
    """

    SLICE_EVERY = 0.2

    def __init__(self) -> None:
        self.readings = [calibrate()]
        self._excluded = 0.0
        self._last = time.perf_counter()

    def now(self) -> float:
        return time.perf_counter() - self._excluded

    def breathe(self) -> None:
        started = time.perf_counter()
        if started - self._last < self.SLICE_EVERY:
            return
        self.readings.append(calibrate())
        self._last = time.perf_counter()
        self._excluded += self._last - started

    def close(self) -> float:
        """Take the last reading; returns the pass's host factor."""
        self.readings.append(calibrate())
        return host_factor(self.readings)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, __, q3 = quantiles(values, n=4)
    return q1, median(values), q3


def summarize(values: Sequence[float]) -> Dict[str, float]:
    q1, mid, q3 = quartiles(values)
    return {
        "n": len(values),
        "min": min(values),
        "median": mid,
        "q1": q1,
        "q3": q3,
        "iqr": q3 - q1,
    }
