"""Tests for the piece-selection strategies, on the production kernels.

Each case states its candidates as a list and the copy counts as a flat
list indexed by piece; ``kernel_select`` hands them to ``select`` as the
picker does, as two aligned arrays."""

from collections import Counter
from random import Random

import pytest
from hypothesis import given, strategies as st

from repro.core.rarest_first import (
    DEFAULT_SELECTOR_SPEC,
    GlobalRarestSelector,
    ProportionalFairSelector,
    RandomSelector,
    RarestFirstSelector,
    SELECTOR_REGISTRY,
    SequentialSelector,
    SequentialWindowSelector,
    make_selector,
    parse_selector_spec,
)

from tests.reference_selectors import kernel_select


class TestRarestFirst:
    def test_picks_unique_rarest(self):
        selector = RarestFirstSelector()
        availability = [5, 1, 3, 4]
        assert kernel_select(selector, [0, 1, 2, 3], availability, Random(1)) == 1

    def test_random_within_rarest_set(self):
        selector = RarestFirstSelector()
        availability = [2, 1, 1, 9]
        picks = {
            kernel_select(selector, [0, 1, 2, 3], availability, Random(seed))
            for seed in range(50)
        }
        assert picks == {1, 2}

    def test_only_considers_candidates(self):
        # Piece 0 is globally rarest but not offered by this remote.
        selector = RarestFirstSelector()
        availability = [0, 2, 3]
        assert kernel_select(selector, [1, 2], availability, Random(1)) == 1

    def test_uniformity_over_rarest_set(self):
        selector = RarestFirstSelector()
        availability = [1, 1, 1, 1]
        rng = Random(42)
        counts = Counter(
            kernel_select(selector, [0, 1, 2, 3], availability, rng)
            for __ in range(4000)
        )
        for piece in range(4):
            assert 800 < counts[piece] < 1200  # roughly uniform


class TestRandomSelector:
    def test_ignores_availability(self):
        selector = RandomSelector()
        availability = [0, 100]
        picks = {
            kernel_select(selector, [0, 1], availability, Random(s)) for s in range(40)
        }
        assert picks == {0, 1}


class TestSequentialSelector:
    def test_lowest_index(self):
        selector = SequentialSelector()
        assert kernel_select(selector, [7, 2, 9], [1] * 10, Random(1)) == 2


class TestGlobalRarest:
    def test_uses_oracle_counts(self):
        # Local availability says piece 0 is rarest, the oracle says 1.
        def oracle():
            return [10, 1]

        selector = GlobalRarestSelector(oracle)
        assert kernel_select(selector, [0, 1], [1, 5], Random(1)) == 1

    def test_oracle_called_fresh_each_time(self):
        counts = {"calls": 0}

        def oracle():
            counts["calls"] += 1
            return [1, 2]

        selector = GlobalRarestSelector(oracle)
        kernel_select(selector, [0, 1], [0, 0], Random(1))
        kernel_select(selector, [0, 1], [0, 0], Random(1))
        assert counts["calls"] == 2


class TestSequentialWindow:
    def test_prefers_window_pieces(self):
        # Window [0, 4): pieces 8 and 9 are rarer but out of window.
        selector = SequentialWindowSelector(window=4)
        availability = [5, 5, 5, 5, 5, 5, 5, 5, 1, 1]
        assert kernel_select(selector, [2, 8, 9], availability, Random(1)) == 2

    def test_rarest_within_window(self):
        selector = SequentialWindowSelector(window=4)
        availability = [9, 2, 7, 7]
        assert kernel_select(selector, [0, 1, 2], availability, Random(1)) == 1

    def test_falls_back_to_rarest_outside_window(self):
        # Nothing in the window: behave like rarest first on the rest.
        selector = SequentialWindowSelector(window=2)
        availability = [0, 0, 5, 1, 5]
        assert kernel_select(selector, [2, 3, 4], availability, Random(1)) == 3

    def test_window_follows_bound_position(self):
        selector = SequentialWindowSelector(window=2)
        selector.bind_position(lambda: 6)
        availability = [1, 1, 1, 1, 1, 1, 9, 9, 1, 1]
        picks = {
            kernel_select(selector, [0, 6, 7, 8], availability, Random(s))
            for s in range(30)
        }
        assert picks == {6, 7}

    def test_window_validation(self):
        with pytest.raises(ValueError):
            SequentialWindowSelector(window=0)


class TestProportionalFair:
    def test_urgency_prefers_pieces_near_position(self):
        selector = ProportionalFairSelector(urgency=0.5, rarity_bias=0.0)
        availability = [3] * 40
        counts = Counter(
            kernel_select(selector, list(range(40)), availability, Random(seed))
            for seed in range(2000)
        )
        assert counts[0] > counts[5] > counts.get(20, 0)

    def test_rarity_bias_prefers_rare_pieces_at_equal_distance(self):
        # Urgency 1.0 makes distance irrelevant; only rarity remains.
        selector = ProportionalFairSelector(urgency=1.0, rarity_bias=2.0)
        availability = [9, 0, 9]
        counts = Counter(
            kernel_select(selector, [0, 1, 2], availability, Random(seed))
            for seed in range(300)
        )
        assert counts[1] > counts[0] + counts[2]

    def test_position_shifts_urgency_origin(self):
        selector = ProportionalFairSelector(urgency=0.1, rarity_bias=0.0)
        selector.bind_position(lambda: 30)
        availability = [1] * 40
        counts = Counter(
            kernel_select(selector, [0, 30, 39], availability, Random(seed))
            for seed in range(500)
        )
        # Pieces behind the position keep distance 0 (still urgent for
        # completeness); 30 and 0 dominate the far-ahead 39.
        assert counts.get(39, 0) < counts[30]

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ProportionalFairSelector(urgency=0.0)
        with pytest.raises(ValueError):
            ProportionalFairSelector(urgency=1.5)
        with pytest.raises(ValueError):
            ProportionalFairSelector(rarity_bias=-1.0)


def test_select_indexed_is_a_stub_nothing_calls():
    with pytest.raises(NotImplementedError):
        RarestFirstSelector().select_indexed()


class TestSelectorRegistry:
    def test_registry_covers_builtins(self):
        assert set(SELECTOR_REGISTRY) == {
            "rarest-first", "random", "sequential", "seq-window", "pfs",
            "mode-suppression",
        }
        assert DEFAULT_SELECTOR_SPEC in SELECTOR_REGISTRY

    def test_parse_plain_name(self):
        assert parse_selector_spec("rarest-first") == ("rarest-first", {})

    def test_parse_parameters(self):
        name, params = parse_selector_spec("pfs:urgency=0.9,rarity_bias=2")
        assert name == "pfs"
        assert params == {"urgency": 0.9, "rarity_bias": 2}

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            parse_selector_spec("no-such-strategy")

    def test_bad_parameter_rejected(self):
        with pytest.raises(ValueError):
            make_selector("seq-window:no_such_param=3")
        with pytest.raises(ValueError):
            make_selector("seq-window:window=0")

    def test_make_selector_none_is_none(self):
        assert make_selector(None) is None
        assert make_selector("") is None

    def test_make_selector_returns_fresh_instances(self):
        # Playback-aware selectors carry per-peer position bindings, so
        # sharing one instance between peers would be a bug.
        first = make_selector("seq-window:window=8")
        second = make_selector("seq-window:window=8")
        assert first is not second
        assert first.window == 8


@given(
    st.lists(st.integers(0, 50), min_size=1, max_size=40),
    st.integers(0, 2**32 - 1),
)
def test_property_every_selector_returns_a_candidate(availability, seed):
    candidates = list(range(len(availability)))
    rng = Random(seed)
    for selector in (
        RarestFirstSelector(),
        RandomSelector(),
        SequentialSelector(),
        GlobalRarestSelector(lambda: availability),
        SequentialWindowSelector(window=4),
        ProportionalFairSelector(),
    ):
        assert kernel_select(selector, candidates, availability, rng) in candidates


@given(
    st.lists(st.integers(0, 50), min_size=2, max_size=40),
    st.integers(0, 2**32 - 1),
)
def test_property_rarest_first_picks_minimum(availability, seed):
    candidates = list(range(len(availability)))
    pick = kernel_select(
        RarestFirstSelector(), candidates, availability, Random(seed)
    )
    assert availability[pick] == min(availability)
