"""Tests for the discrete-event engine."""

import pytest

from repro.sim.engine import SimulationError, Simulator, Timer

from tests.probes import pending_events


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(3.0, lambda: order.append("c"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(2.0, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_broken_by_insertion_order(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, lambda: order.append("first"))
        sim.schedule(1.0, lambda: order.append("second"))
        sim.run()
        assert order == ["first", "second"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(5.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.0]

    def test_run_until_stops_at_boundary(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(10))
        sim.run_until(5.0)
        assert fired == [1]
        assert sim.now == 5.0
        sim.run_until(15.0)
        assert fired == [1, 10]

    def test_run_until_inclusive(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append(1))
        sim.run_until(5.0)
        assert fired == [1]

    def test_events_scheduled_during_run_execute(self):
        sim = Simulator()
        order = []

        def first():
            order.append("first")
            sim.schedule(1.0, lambda: order.append("nested"))

        sim.schedule(1.0, first)
        sim.run()
        assert order == ["first", "nested"]

    def test_scheduling_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_cancellation(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append(1))
        handle.cancel()
        sim.run()
        assert fired == []
        assert handle.cancelled

    def test_pending_events_excludes_cancelled(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        handle = sim.schedule(2.0, lambda: None)
        handle.cancel()
        assert pending_events(sim) == 1


class TestTimer:
    def test_fires_repeatedly(self):
        sim = Simulator()
        ticks = []
        Timer(sim, 10.0, lambda: ticks.append(sim.now))
        sim.run_until(35.0)
        assert ticks == [10.0, 20.0, 30.0]

    def test_start_at_phase(self):
        sim = Simulator()
        ticks = []
        Timer(sim, 10.0, lambda: ticks.append(sim.now), start_at=3.0)
        sim.run_until(25.0)
        assert ticks == [3.0, 13.0, 23.0]

    def test_stop(self):
        sim = Simulator()
        ticks = []
        timer = Timer(sim, 10.0, lambda: ticks.append(sim.now))
        sim.run_until(15.0)
        timer.stop()
        sim.run_until(100.0)
        assert ticks == [10.0]
        assert timer.stopped

    def test_stop_from_callback(self):
        sim = Simulator()
        ticks = []

        def tick():
            ticks.append(sim.now)
            if len(ticks) == 2:
                timer.stop()

        timer = Timer(sim, 5.0, tick)
        sim.run_until(100.0)
        assert ticks == [5.0, 10.0]

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            Timer(Simulator(), 0.0, lambda: None)

    def test_interval_property(self):
        assert Timer(Simulator(), 2.5, lambda: None).interval == 2.5


class TestDeterminism:
    def test_two_identical_runs_produce_identical_traces(self):
        def run():
            sim = Simulator()
            trace = []
            Timer(sim, 1.0, lambda: trace.append(("t", sim.now)))
            sim.schedule(2.5, lambda: trace.append(("e", sim.now)))
            sim.run_until(5.0)
            return trace

        assert run() == run()
