"""Deterministic discrete-event simulation engine.

A :class:`Simulator` keeps a priority queue of timed events.  Each event
is a plain callable; ties at the same timestamp are broken by insertion
order, so a run is bit-reproducible given the same seed.  :class:`Timer`
wraps the recurring-callback pattern used by choke rounds, tracker
announces and snapshot sampling.

The queue is one binary heap of ``(time, sequence, event)`` tuples, so
ordering comparisons run at C speed instead of through a Python
``__lt__``.  The benchmark suite puts the loop and ``schedule_at``
together under 1% of every simulator workload (DESIGN §12), which is
why nothing fancier lives here.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple

Callback = Callable[[], None]


class SimulationError(RuntimeError):
    """Raised on engine misuse (e.g. scheduling in the past)."""


class _Event:
    """Per-event state.  Cancellation is a tombstone flag; ordering lives
    in the queue tuples, not here."""

    __slots__ = ("time", "callback", "cancelled")

    def __init__(self, time: float, callback: Callback):
        self.time = time
        self.callback = callback
        self.cancelled = False


_Entry = Tuple[float, int, _Event]


class EventHandle:
    """Returned by :meth:`Simulator.schedule`; supports cancellation."""

    __slots__ = ("_event",)

    def __init__(self, event: _Event):
        self._event = event

    def cancel(self) -> None:
        self._event.cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._event.cancelled

    @property
    def time(self) -> float:
        return self._event.time


class Simulator:
    """Event loop with a simulated clock starting at ``t = 0`` seconds."""

    def __init__(self) -> None:
        self._queue: List[_Entry] = []
        self._now = 0.0
        self._sequence = itertools.count()
        self._running = False
        self._events_processed = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Events executed so far (cancelled tombstones excluded); the
        benchmark suite reports it as ``sim.engine.events``."""
        return self._events_processed

    def schedule(self, delay: float, callback: Callback) -> EventHandle:
        """Run *callback* after *delay* simulated seconds."""
        return self.schedule_at(self._now + delay, callback)

    def schedule_at(self, time: float, callback: Callback) -> EventHandle:
        """Run *callback* at absolute simulated *time*."""
        if time < self._now:
            raise SimulationError(
                "cannot schedule at t=%.3f, clock is already at t=%.3f"
                % (time, self._now)
            )
        event = _Event(time, callback)
        heapq.heappush(self._queue, (time, next(self._sequence), event))
        return EventHandle(event)

    def run_until(self, end_time: float) -> None:
        """Execute events with timestamps ``<= end_time``; clock ends there."""
        self._drain(end_time)
        self._now = max(self._now, end_time)

    def run(self) -> None:
        """Execute every pending event (use only with finite schedules)."""
        self._drain(float("inf"))

    def _drain(self, end_time: float) -> None:
        """Pop and execute events up to and including *end_time*."""
        if self._running:
            raise SimulationError("the event loop is not reentrant")
        self._running = True
        queue = self._queue
        pop = heapq.heappop
        try:
            while queue and queue[0][0] <= end_time:
                time, _sequence, event = pop(queue)
                if event.cancelled:
                    continue
                self._now = time
                self._events_processed += 1
                event.callback()
        finally:
            self._running = False


class Timer:
    """A recurring callback with optional phase offset.

    The callback fires first at ``start_at`` (default: one interval from
    now) and then every ``interval`` seconds until :meth:`stop` is called.
    Per-peer timers are given random phases by the swarm so that choke
    rounds across the population do not fire in lockstep.
    """

    def __init__(
        self,
        simulator: Simulator,
        interval: float,
        callback: Callback,
        start_at: Optional[float] = None,
    ):
        if interval <= 0:
            raise ValueError("timer interval must be positive")
        self._simulator = simulator
        self._interval = interval
        self._callback = callback
        self._stopped = False
        self._handle: Optional[EventHandle] = None
        first = simulator.now + interval if start_at is None else start_at
        self._schedule(first)

    def _schedule(self, time: float) -> None:
        self._handle = self._simulator.schedule_at(time, self._fire)

    def _fire(self) -> None:
        if self._stopped:
            return
        # Schedule the next occurrence before running the callback so a
        # callback that raises does not silently kill the timer chain in
        # tests that catch the exception.
        self._schedule(self._simulator.now + self._interval)
        self._callback()

    def stop(self) -> None:
        self._stopped = True
        if self._handle is not None:
            self._handle.cancel()

    @property
    def stopped(self) -> bool:
        return self._stopped

    @property
    def interval(self) -> float:
        return self._interval
