"""Outage tiers on the one tracker against the federation they replaced.

A federation of N replica frontends over one shared registry
(``tests/reference_tracker_federation.py``) serves an announce while any
replica is up and raises :class:`TrackerUnavailable` while every one is
down; :meth:`Tracker.set_outages` with one tier per replica states the
same rule.  Hypothesis drives both with the same replica count, windows
and announce sequence — times drawn from the window edges as often as
from anywhere — and requires the same outcome announce by announce and
the same books afterwards.  Samples are drawn from each tracker's own
fallback stream, seeded alike, so a served announce that one side failed
would also show up in every later sample.
"""

from random import Random

from hypothesis import given, settings, strategies as st

from repro.tracker.tracker import Tracker, TrackerUnavailable

from tests.reference_tracker_federation import TrackerFederation

ADDRESSES = ["10.0.0.%d:6881" % host for host in range(1, 7)]
EVENTS = ("started", "", "completed", "stopped")


class _Clock:
    now = 0.0

    def __call__(self):
        return self.now


@st.composite
def scenarios(draw):
    replicas = draw(st.integers(1, 4))
    window = st.tuples(st.integers(0, 40), st.integers(1, 20))
    tiers = [draw(st.lists(window, max_size=3)) for _ in range(replicas)]
    edges = sorted(
        {edge for windows in tiers for start, length in windows
         for edge in (start, start + length)}
    )
    times = st.integers(0, 70).map(float)
    if edges:
        times = times | st.sampled_from(edges).map(float)
    announce = st.tuples(
        times,
        st.sampled_from(ADDRESSES),
        st.sampled_from(EVENTS),
        st.integers(0, 5),
        st.booleans(),
    )
    announces = draw(st.lists(announce, max_size=30))
    return tiers, sorted(announces, key=lambda entry: entry[0])


def replay(tracker, clock, announces):
    outcomes = []
    for now, address, event, num_want, is_seed in announces:
        clock.now = now
        try:
            outcomes.append(
                tracker.announce(
                    address, event=event, num_want=num_want, is_seed=is_seed,
                    have_count=int(now),
                )
            )
        except TrackerUnavailable:
            outcomes.append(TrackerUnavailable)
    return outcomes


@settings(max_examples=300, deadline=None)
@given(scenarios())
def test_tiers_answer_as_the_federation_did(scenario):
    tiers, announces = scenario
    tier_clock, federation_clock = _Clock(), _Clock()
    tracker = Tracker(Random(5), tier_clock)
    tracker.set_outages(*tiers)
    federation = TrackerFederation(Random(5), federation_clock, replicas=len(tiers))
    for replica, windows in enumerate(tiers):
        federation.set_replica_outages(replica, windows)

    assert replay(tracker, tier_clock, announces) == replay(
        federation, federation_clock, announces
    )
    assert tracker.failed_announce_count == federation.failed_announce_count
    assert tracker.announce_count == federation.announce_count
    assert tracker.history == federation.history
    assert tracker.scrape() == federation.scrape()


def test_window_edges():
    """A window covers its start and stops covering at start + duration;
    tiers overlap into a shorter outage than either."""
    clock = _Clock()
    tracker = Tracker(Random(1), clock)
    tracker.set_outages([(10.0, 10.0)], [(15.0, 10.0)])
    down = [now for now in (9.0, 10.0, 14.0, 15.0, 19.5, 20.0, 25.0)
            if tracker.is_down(now)]
    assert down == [15.0, 19.5]
    tracker.set_outages()
    assert not tracker.is_down(15.0)
