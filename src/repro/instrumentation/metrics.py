"""Swarm-observability metrics: a registry of named counters.

The paper's methodology is log-then-analyse; a production-scale swarm
additionally needs *cheap, always-on* aggregates that can be read while
the system runs.  This module provides them as a tiny, dependency-free
registry of :class:`Counter` totals (messages, faults, announces),
shared by the instrumentation layer and the live swarm; ``repro run``
prints it after the run.

Everything is deterministic: incrementing a counter never draws
randomness and never touches the wall clock, so a metrics-instrumented
simulation is byte-identical to a bare one.

>>> registry = MetricsRegistry()
>>> registry.inc("messages.sent")
>>> registry.inc("messages.sent", 2)
>>> registry.counter("messages.sent").value
3.0
>>> registry.inc("fault.loss")
>>> print(registry.render())
counters:
  fault.loss                                          1
  messages.sent                                       3
"""

from __future__ import annotations

from typing import Dict, List

__all__ = ["Counter", "MetricsRegistry"]


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only increase")
        self.value += amount

    def __repr__(self) -> str:
        return "Counter(%s=%g)" % (self.name, self.value)


class MetricsRegistry:
    """Name-keyed store of counters, one flat namespace per registry.

    Dots namespace the flat keys by convention (``messages.sent``,
    ``fault.connection_reaped``); :meth:`with_prefix` slices a namespace
    back out as a plain mapping.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}

    def counter(self, name: str) -> Counter:
        """The counter called *name*, created at zero on first use."""
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

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
        }

    def render(self) -> str:
        """Human-readable dump for the CLI."""
        if not self._counters:
            return "(no metrics recorded)"
        lines: List[str] = ["counters:"]
        for name, counter in sorted(self._counters.items()):
            lines.append("  %-40s %12g" % (name, counter.value))
        return "\n".join(lines)
