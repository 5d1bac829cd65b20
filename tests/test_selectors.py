"""Tests for the piece-selection strategies, on the production kernels.

Each case states its candidates as a list and the copy counts as a flat
list indexed by piece; ``kernel_select`` hands them to ``select`` as the
picker does, as two aligned arrays."""

from collections import Counter
from random import Random

import pytest
from hypothesis import given, strategies as st

from repro.core.rarest_first import (
    GlobalRarestSelector,
    ModeSuppressionSelector,
    RandomSelector,
    RarestFirstSelector,
    SELECTOR_REGISTRY,
    SequentialSelector,
    make_selector,
)
from repro.spec_grammar import number, parse_spec

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


def test_select_indexed_is_a_stub_nothing_calls():
    with pytest.raises(NotImplementedError):
        RarestFirstSelector().select_indexed()


class TestSelectorRegistry:
    def test_registry_covers_builtins(self):
        assert set(SELECTOR_REGISTRY) == {
            "rarest-first", "random", "sequential", "mode-suppression",
        }
        assert RarestFirstSelector.name in SELECTOR_REGISTRY

    def test_parse_plain_name(self):
        assert parse_spec("rarest-first", "selector", SELECTOR_REGISTRY, number) == (
            "rarest-first", {},
        )

    def test_parse_parameters(self):
        name, params = parse_spec(
            "mode-suppression:suppression=0.9,level=2,mode=fast", "selector",
            SELECTOR_REGISTRY, number,
        )
        assert name == "mode-suppression"
        assert params == {"suppression": 0.9, "level": 2, "mode": "fast"}
        assert type(params["level"]) is int

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown selector 'no-such-strategy'"):
            make_selector("no-such-strategy")

    def test_bad_parameter_rejected(self):
        for spec, message in (
            ("mode-suppression:suppresion=0.9", "bad parameters for selector"),
            ("rarest-first:windw=3", "bad parameters for selector"),
            ("mode-suppression:suppression", "malformed selector parameter"),
            ("mode-suppression:=0.9", "malformed selector parameter"),
            ("mode-suppression:suppression=2", "suppression"),
        ):
            with pytest.raises(ValueError, match=message):
                make_selector(spec)

    def test_make_selector_rejects_an_empty_spec(self):
        for spec in ("", "  "):
            with pytest.raises(ValueError, match="unknown selector ''"):
                make_selector(spec)

    def test_make_selector_returns_fresh_instances(self):
        # Mode suppression carries a per-peer scarcity binding, so
        # sharing one instance between peers would be a bug.
        first = make_selector("mode-suppression:suppression=0.8")
        second = make_selector("mode-suppression:suppression=0.8")
        assert first is not second
        assert first.suppression == 0.8


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
        ModeSuppressionSelector(),
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
