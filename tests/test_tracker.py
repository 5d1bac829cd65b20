"""Tests for the simulated tracker."""

import hashlib
from random import Random

from repro.tracker.tracker import Tracker


def make_tracker():
    clock = {"now": 0.0}
    tracker = Tracker(Random(1), lambda: clock["now"])
    return tracker, clock


class TestAnnounce:
    def test_started_registers(self):
        tracker, __ = make_tracker()
        tracker.announce("a", event="started", num_want=50, is_seed=False)
        assert tracker.num_registered == 1

    def test_stopped_unregisters(self):
        tracker, __ = make_tracker()
        tracker.announce("a", event="started", num_want=0, is_seed=False)
        tracker.announce("a", event="stopped", num_want=0, is_seed=False)
        assert tracker.num_registered == 0

    def test_peer_list_excludes_requester(self):
        tracker, __ = make_tracker()
        for name in "abcde":
            tracker.announce(name, event="started", num_want=0, is_seed=False)
        peers = tracker.announce("a", event="", num_want=50, is_seed=False)
        assert "a" not in peers
        assert set(peers) == set("bcde")

    def test_num_want_respected(self):
        tracker, __ = make_tracker()
        for index in range(100):
            tracker.announce("p%d" % index, event="started", num_want=0, is_seed=False)
        peers = tracker.announce("p0", event="", num_want=50, is_seed=False)
        assert len(peers) == 50
        assert len(set(peers)) == 50

    def test_zero_num_want(self):
        tracker, __ = make_tracker()
        tracker.announce("a", event="started", num_want=0, is_seed=False)
        assert tracker.announce("b", event="started", num_want=0, is_seed=False) == []

    def test_sampling_is_random(self):
        tracker, __ = make_tracker()
        for index in range(60):
            tracker.announce("p%d" % index, event="started", num_want=0, is_seed=False)
        first = tracker.announce("p0", event="", num_want=20, is_seed=False)
        second = tracker.announce("p0", event="", num_want=20, is_seed=False)
        assert first != second  # astronomically unlikely to collide

    def test_completed_counted(self):
        tracker, __ = make_tracker()
        tracker.announce("a", event="started", num_want=0, is_seed=False)
        tracker.announce("a", event="completed", num_want=0, is_seed=True)
        assert tracker.completed_count == 1


class TestRngDiscipline:
    """The announce sample is a pure function of (caller RNG, registry).

    Historically every sample came from one shared tracker stream over a
    dict-iteration-order candidate list, so any reordering of *other*
    peers' announces perturbed a peer's sample.  These tests pin the
    repaired contract (DESIGN.md §15).
    """

    #: Pinned sample for (60-peer registry in registration order,
    #: requester p3, num_want 20, caller rng Random(123)).  Changing the
    #: sampler's draw pattern or the registry order breaks this on
    #: purpose: it is the announce-sampling equivalent of the campaign
    #: manifest fingerprint.
    PINNED = "4fe06baadaa46c5d3ce1ce1aea28c0bceee3ff5d57d26cf131fec5c1a249e32e"

    @staticmethod
    def populate(tracker, num_want=0):
        for index in range(60):
            tracker.announce(
                "p%d" % index,
                event="started",
                num_want=num_want,
                is_seed=index % 4 == 0,
            )

    def test_caller_rng_sample_fingerprint(self):
        tracker, __ = make_tracker()
        self.populate(tracker)
        sample = tracker.announce(
            "p3", event="", num_want=20, is_seed=False, rng=Random(123)
        )
        digest = hashlib.sha256(repr(sample).encode()).hexdigest()
        assert digest == self.PINNED

    def test_sample_independent_of_shared_stream_consumption(self):
        # Interleaved announces by OTHER peers drain the tracker's own
        # fallback stream (num_want > 0, no caller rng would have hit it
        # pre-fix); the caller-RNG sample must not move.
        tracker, __ = make_tracker()
        self.populate(tracker, num_want=17)
        sample = tracker.announce(
            "p3", event="", num_want=20, is_seed=False, rng=Random(123)
        )
        digest = hashlib.sha256(repr(sample).encode()).hexdigest()
        assert digest == self.PINNED

    def test_fallback_stream_still_works_without_caller_rng(self):
        tracker, __ = make_tracker()
        self.populate(tracker)
        sample = tracker.announce("p3", event="", num_want=20, is_seed=False)
        assert len(sample) == 20
        assert "p3" not in sample


class TestScrape:
    def test_seed_leecher_split(self):
        tracker, __ = make_tracker()
        tracker.announce("s", event="started", num_want=0, is_seed=True)
        tracker.announce("l1", event="started", num_want=0, is_seed=False)
        tracker.announce("l2", event="started", num_want=0, is_seed=False)
        assert tracker.scrape() == (1, 2)

    def test_seed_transition_updates_scrape(self):
        tracker, __ = make_tracker()
        tracker.announce("x", event="started", num_want=0, is_seed=False)
        tracker.announce("x", event="completed", num_want=0, is_seed=True)
        assert tracker.scrape() == (1, 0)

    def test_registered_addresses(self):
        tracker, __ = make_tracker()
        tracker.announce("a", event="started", num_want=0, is_seed=False)
        assert tracker.registered_addresses() == ["a"]
