"""Swarm-observability metrics: counters, gauges, histograms, rates.

The paper's methodology is log-then-analyse; a production-scale swarm
additionally needs *cheap, always-on* aggregates that can be read while
the system runs.  This module provides them as a tiny, dependency-free
registry shared by the instrumentation layer and the CLI's ``metrics``
command:

* :class:`Counter` — monotonically increasing totals (messages, faults);
* :class:`Gauge` — last-write-wins values (peer-set size, queue depth);
* :class:`Histogram` — fixed-bucket distributions;
* :class:`WindowedRate` — events per second over a sliding window.

Everything is deterministic: observing a value never draws randomness
and never touches the wall clock (callers pass ``now`` explicitly), so a
metrics-instrumented simulation is byte-identical to a bare one.

>>> registry = MetricsRegistry()
>>> registry.inc("messages.sent")
>>> registry.inc("messages.sent", 2)
>>> registry.counter("messages.sent").value
3.0
>>> h = registry.histogram("latency", buckets=(0.1, 1.0))
>>> for sample in (0.05, 0.5, 5.0):
...     h.observe(sample)
>>> h.counts  # <=0.1, <=1.0, overflow
[1, 1, 1]
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "WindowedRate",
    "MetricsRegistry",
]


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only increase; use a Gauge")
        self.value += amount

    def __repr__(self) -> str:
        return "Counter(%s=%g)" % (self.name, self.value)


class Gauge:
    """A last-write-wins value with a running maximum."""

    __slots__ = ("name", "value", "max_value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self.max_value = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.max_value:
            self.max_value = value

    def __repr__(self) -> str:
        return "Gauge(%s=%g, max=%g)" % (self.name, self.value, self.max_value)


class Histogram:
    """Fixed upper-bound buckets plus one overflow bucket.

    ``counts[i]`` tallies observations ``<= buckets[i]`` (exclusive of
    lower buckets); the final entry counts overflows above the last
    bound.  Bounds are fixed at construction so merging/rendering never
    re-bins.
    """

    __slots__ = ("name", "buckets", "counts", "total", "sum", "min", "max")

    def __init__(self, name: str, buckets: Sequence[float]):
        if not buckets:
            raise ValueError("histogram needs at least one bucket bound")
        ordered = tuple(float(b) for b in buckets)
        if list(ordered) != sorted(set(ordered)):
            raise ValueError("bucket bounds must be strictly increasing")
        self.name = name
        self.buckets: Tuple[float, ...] = ordered
        self.counts: List[int] = [0] * (len(ordered) + 1)
        self.total = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.buckets, value)] += 1
        self.total += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0

    def quantile(self, q: float) -> Optional[float]:
        """Upper bound of the bucket containing quantile *q* (None when
        empty or when the quantile lands in the overflow bucket)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.total == 0:
            return None
        rank = q * self.total
        running = 0
        for bound, count in zip(self.buckets, self.counts):
            running += count
            if running >= rank:
                return bound
        return None  # lands in the overflow bucket

    def __repr__(self) -> str:
        return "Histogram(%s, n=%d, mean=%g)" % (self.name, self.total, self.mean())


class WindowedRate:
    """Events per second over a sliding time window.

    Timestamps come from the caller (simulated or wall time); the class
    itself never reads a clock.
    """

    __slots__ = ("name", "window", "_times", "count")

    def __init__(self, name: str, window: float = 20.0):
        if window <= 0:
            raise ValueError("window must be positive")
        self.name = name
        self.window = window
        self._times: deque = deque()
        self.count = 0  # lifetime total, survives window eviction

    def record(self, now: float, occurrences: int = 1) -> None:
        for __ in range(occurrences):
            self._times.append(now)
        self.count += occurrences
        self._evict(now)

    def rate(self, now: float) -> float:
        self._evict(now)
        return len(self._times) / self.window

    def _evict(self, now: float) -> None:
        horizon = now - self.window
        times = self._times
        while times and times[0] <= horizon:
            times.popleft()

    def __repr__(self) -> str:
        return "WindowedRate(%s, window=%gs, total=%d)" % (
            self.name, self.window, self.count
        )


DEFAULT_TIME_BUCKETS = (
    1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4,
    1e-3, 2e-3, 5e-3, 1e-2, 5e-2, 1e-1,
)


class MetricsRegistry:
    """Name-keyed store of metrics, one flat namespace per registry.

    Dots namespace the flat keys by convention (``messages.sent``,
    ``fault.announce_retry``); :meth:`with_prefix` slices a namespace
    back out as a plain mapping.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._rates: Dict[str, WindowedRate] = {}

    # -- get-or-create accessors -------------------------------------------

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge(name)
        return gauge

    def histogram(
        self, name: str, buckets: Sequence[float] = DEFAULT_TIME_BUCKETS
    ) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(name, buckets)
        return histogram

    def rate(self, name: str, window: float = 20.0) -> WindowedRate:
        rate = self._rates.get(name)
        if rate is None:
            rate = self._rates[name] = WindowedRate(name, window)
        return rate

    # -- convenience -------------------------------------------------------

    def inc(self, name: str, amount: float = 1.0) -> None:
        self.counter(name).inc(amount)

    def value(self, name: str) -> float:
        """Current value of counter *name* (0 when never incremented)."""
        counter = self._counters.get(name)
        return counter.value if counter is not None else 0.0

    def with_prefix(self, prefix: str) -> Dict[str, float]:
        """Counters under *prefix*, keys stripped of it, as a plain dict."""
        return {
            name[len(prefix):]: counter.value
            for name, counter in self._counters.items()
            if name.startswith(prefix)
        }

    def snapshot(self) -> Dict[str, dict]:
        """All metrics as one JSON-serialisable document."""
        return {
            "counters": {
                name: counter.value
                for name, counter in sorted(self._counters.items())
            },
            "gauges": {
                name: {"value": gauge.value, "max": gauge.max_value}
                for name, gauge in sorted(self._gauges.items())
            },
            "histograms": {
                name: {
                    "buckets": list(histogram.buckets),
                    "counts": list(histogram.counts),
                    "total": histogram.total,
                    "sum": histogram.sum,
                    "min": histogram.min,
                    "max": histogram.max,
                }
                for name, histogram in sorted(self._histograms.items())
            },
            "rates": {
                name: {"window": rate.window, "total": rate.count}
                for name, rate in sorted(self._rates.items())
            },
        }

    def render(self) -> str:
        """Human-readable multi-section dump for the CLI."""
        lines: List[str] = []
        if self._counters:
            lines.append("counters:")
            for name, counter in sorted(self._counters.items()):
                lines.append("  %-40s %12g" % (name, counter.value))
        if self._gauges:
            lines.append("gauges:")
            for name, gauge in sorted(self._gauges.items()):
                lines.append(
                    "  %-40s %12g  (max %g)" % (name, gauge.value, gauge.max_value)
                )
        if self._histograms:
            lines.append("histograms:")
            for name, histogram in sorted(self._histograms.items()):
                lines.append(
                    "  %-40s n=%-8d mean=%-12.6g min=%-12.6g max=%-12.6g"
                    % (
                        name,
                        histogram.total,
                        histogram.mean(),
                        histogram.min if histogram.min is not None else 0.0,
                        histogram.max if histogram.max is not None else 0.0,
                    )
                )
        if self._rates:
            lines.append("rates:")
            for name, rate in sorted(self._rates.items()):
                lines.append(
                    "  %-40s total=%-10d window=%gs" % (name, rate.count, rate.window)
                )
        return "\n".join(lines) if lines else "(no metrics recorded)"
