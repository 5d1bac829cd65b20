"""Property-based tests for the instrumentation bookkeeping.

The `_IntervalTracker` is the foundation every presence/interest figure
stands on, so its algebra is checked against randomly generated on/off
signals with Hypothesis:

* **partition sum** — clipping to the cells of any partition of the
  observation window and summing recovers ``total()``;
* **idempotence** — redundant ``set_on``/``set_off``/``close`` calls
  are no-ops;
* **clipping** — ``total_clipped`` is non-negative, monotone in the
  window, and never exceeds ``total()``.

Plus an integration test for the offline-gap snapshot marker: a local
peer that leaves mid-run keeps sampling (explicitly marked offline)
instead of silently dropping samples, and the analysis series skip the
marked gaps.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.analysis.peerset import peer_set_series
from repro.analysis.replication import replication_series
from repro.instrumentation import Instrumentation
from repro.instrumentation.logger import _IntervalTracker
from repro.sim.config import KIB, SwarmConfig

from tests.conftest import fast_config, tiny_swarm

# Strictly increasing event times; alternate on/off from t=times[0].
event_times = st.lists(
    st.floats(min_value=0.0, max_value=1e5, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=40,
    unique=True,
).map(sorted)


def tracker_from(times, close_at=None):
    tracker = _IntervalTracker()
    for index, time in enumerate(times):
        if index % 2 == 0:
            tracker.set_on(time)
        else:
            tracker.set_off(time)
    if close_at is not None:
        tracker.close(max(close_at, times[-1]))
    return tracker


@given(times=event_times, cells=st.integers(min_value=1, max_value=12))
@settings(max_examples=200, deadline=None)
def test_partition_sum_recovers_total(times, cells):
    tracker = tracker_from(times, close_at=times[-1] + 1.0)
    lo, hi = 0.0, times[-1] + 2.0
    edges = [lo + (hi - lo) * i / cells for i in range(cells + 1)]
    partitioned = sum(
        tracker.total_clipped(edges[i], edges[i + 1]) for i in range(cells)
    )
    assert partitioned == pytest.approx(tracker.total(), abs=1e-6)


@given(times=event_times)
@settings(max_examples=200, deadline=None)
def test_redundant_transitions_are_idempotent(times):
    tracker = tracker_from(times)
    reference = tracker_from(times)
    # A second set_on while open and a set_off while closed change nothing.
    probe = times[-1] + 5.0
    if tracker.open_since is not None:
        tracker.set_on(probe)
    else:
        tracker.set_off(probe)
    assert tracker.intervals == reference.intervals
    assert tracker.open_since == reference.open_since
    # close() is set_off: closing twice equals closing once.
    tracker.close(probe + 1.0)
    snapshot = list(tracker.intervals)
    tracker.close(probe + 2.0)
    assert tracker.intervals == snapshot
    assert tracker.open_since is None


@given(
    times=event_times,
    window=st.tuples(
        st.floats(min_value=-10.0, max_value=1e5, allow_nan=False),
        st.floats(min_value=-10.0, max_value=1e5, allow_nan=False),
    ),
)
@settings(max_examples=200, deadline=None)
def test_clipping_is_bounded_and_non_negative(times, window):
    tracker = tracker_from(times, close_at=times[-1])
    lo, hi = min(window), max(window)
    clipped = tracker.total_clipped(lo, hi)
    assert clipped >= 0.0
    assert clipped <= tracker.total() + 1e-9
    # A window covering every interval recovers the full total, and an
    # inverted or empty window contributes nothing.
    assert tracker.total_clipped(-1.0, times[-1] + 1.0) == pytest.approx(
        tracker.total()
    )
    assert tracker.total_clipped(hi, lo) == 0.0


def test_open_interval_is_invisible_until_closed():
    tracker = _IntervalTracker()
    tracker.set_on(10.0)
    assert tracker.total() == 0.0
    assert tracker.total_clipped(0.0, 100.0) == 0.0
    tracker.close(30.0)
    assert tracker.total() == pytest.approx(20.0)


# ---------------------------------------------------------------------------
# offline snapshot gap markers
# ---------------------------------------------------------------------------


def test_offline_snapshots_are_marked_not_dropped():
    swarm = tiny_swarm(
        num_pieces=12,
        seed=13,
        swarm_config=SwarmConfig(seed=13, snapshot_interval=5.0),
    )
    swarm.add_peer(config=fast_config(), is_seed=True)
    instrumentation = Instrumentation()
    local = swarm.add_peer(
        config=fast_config(upload=4 * KIB), observer=instrumentation
    )
    instrumentation.start_sampling()
    for __ in range(3):
        swarm.add_peer(config=fast_config(upload=2 * KIB))
    swarm.run(60.0)
    local.leave()
    swarm.run(120.0)

    online = [s for s in instrumentation.snapshots if not s.offline]
    offline = [s for s in instrumentation.snapshots if s.offline]
    # The sampling timer kept firing through the outage: explicit gap
    # markers instead of silently missing samples.
    assert offline, "expected offline gap markers while the peer was away"
    assert all(s.time >= 60.0 for s in offline)
    assert all(s.peer_set_size == 0 for s in offline)
    # Consecutive samples stay one interval apart across the transition —
    # nothing was dropped.
    all_times = [s.time for s in instrumentation.snapshots]
    assert all_times == sorted(all_times)
    deltas = [b - a for a, b in zip(all_times, all_times[1:])]
    assert max(deltas) == pytest.approx(5.0)

    # Analysis series skip the marked gaps rather than plotting phantom
    # zero-sized peer sets.
    series = replication_series(instrumentation)
    assert series.times == [s.time for s in online]
    times, sizes = peer_set_series(instrumentation)
    assert times == [s.time for s in online]
    assert all(size >= 0 for size in sizes)


def test_offline_markers_cover_exactly_the_time_away():
    swarm = tiny_swarm(
        num_pieces=12,
        seed=17,
        swarm_config=SwarmConfig(seed=17, snapshot_interval=5.0),
    )
    swarm.add_peer(config=fast_config(), is_seed=True)
    instrumentation = Instrumentation()
    local = swarm.add_peer(
        config=fast_config(upload=4 * KIB), observer=instrumentation
    )
    instrumentation.start_sampling()
    swarm.add_peer(config=fast_config(upload=2 * KIB))
    swarm.run(40.0)
    local.leave()
    swarm.run(40.0)
    local.join()
    swarm.run(40.0)
    # The sample at each boundary runs before the leave or the join.
    offline = [s.time for s in instrumentation.snapshots if s.offline]
    assert offline == [45.0 + 5.0 * step for step in range(8)]
    assert instrumentation.snapshots[-1].time == 120.0
