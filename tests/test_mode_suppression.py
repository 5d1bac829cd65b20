"""Property and unit tests for the mode-suppression selector (RFwPMS).

The selector's two contracts:

* **Safety** — it never suppresses an offer that contains a rarest
  *wanted* piece (``offered_min <= rarest_wanted``), and with
  ``suppression=0`` (or no bound scarcity oracle) it is
  bit-for-bit :class:`RarestFirstSelector`: same picks, same RNG
  consumption, so swapping it in never perturbs a seeded trace.
* **Liveness of the decline** — with an over-replicated offer and
  ``suppression=1`` it always declines (returns ``None``), the
  non-work-conserving move that keeps open-system swarms out of the
  one-club regime.

The kernel's equivalence with its list-based reference is pinned in
``test_selection_kernel.py`` and swarm-level in
``test_picker_equivalence.py``; here we pin the selector's own
semantics on the production kernel, plus the picker's
``wanted_scarcity`` oracle the suppression decision is judged against.
"""

from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.piece_picker import PiecePicker
from repro.core.rarest_first import (
    ModeSuppressionSelector,
    RarestFirstSelector,
    SELECTOR_REGISTRY,
    make_selector,
)
from repro.protocol.bitfield import Bitfield
from repro.protocol.metainfo import PieceGeometry

from tests.reference_piece_picker import NaivePiecePicker
from tests.reference_selectors import kernel_select, reference_select

pytestmark = pytest.mark.stability


def bound_selector(suppression, rarest_wanted):
    selector = ModeSuppressionSelector(suppression=suppression)
    selector.bind_scarcity(lambda: rarest_wanted)
    return selector


#: Availability maps as lists of small counts; candidates drawn from them.
availabilities = st.lists(st.integers(0, 6), min_size=1, max_size=12)


@st.composite
def offers(draw):
    availability = draw(availabilities)
    indices = list(range(len(availability)))
    candidates = draw(
        st.lists(st.sampled_from(indices), min_size=1, unique=True)
    )
    seed = draw(st.integers(0, 2**32 - 1))
    return availability, sorted(candidates), seed


@settings(max_examples=200, deadline=None)
@given(offers(), st.floats(0.0, 1.0))
def test_never_suppresses_an_offer_containing_the_rarest_wanted(case, suppression):
    """When the offer reaches down to the rarest wanted copy count, the
    selector must behave exactly like rarest first — no decline, no
    extra RNG draw — even at suppression=1."""
    availability, candidates, seed = case
    offered_min = min(availability[piece] for piece in candidates)
    selector = bound_selector(suppression, offered_min)
    reference = RarestFirstSelector()
    rng_a, rng_b = Random(seed), Random(seed)
    assert kernel_select(selector, candidates, availability, rng_a) == kernel_select(
        reference, candidates, availability, rng_b
    )
    # Identical RNG consumption: the streams stay in lockstep.
    assert rng_a.random() == rng_b.random()


@settings(max_examples=200, deadline=None)
@given(offers())
def test_suppression_zero_reduces_to_rarest_first(case):
    availability, candidates, seed = case
    # Even with an oracle reporting a much rarer wanted piece elsewhere,
    # suppression=0 must never decline nor draw.
    selector = bound_selector(0.0, 0)
    reference = RarestFirstSelector()
    rng_a, rng_b = Random(seed), Random(seed)
    assert kernel_select(selector, candidates, availability, rng_a) == kernel_select(
        reference, candidates, availability, rng_b
    )
    assert rng_a.random() == rng_b.random()


@settings(max_examples=200, deadline=None)
@given(offers())
def test_unbound_oracle_reduces_to_rarest_first(case):
    availability, candidates, seed = case
    selector = ModeSuppressionSelector(suppression=1.0)  # never bound
    reference = RarestFirstSelector()
    rng_a, rng_b = Random(seed), Random(seed)
    assert kernel_select(selector, candidates, availability, rng_a) == kernel_select(
        reference, candidates, availability, rng_b
    )
    assert rng_a.random() == rng_b.random()


@settings(max_examples=200, deadline=None)
@given(offers())
def test_full_suppression_always_declines_over_replicated_offers(case):
    availability, candidates, seed = case
    offered_min = min(availability[piece] for piece in candidates)
    # The oracle reports a strictly rarer wanted piece elsewhere.
    selector = bound_selector(1.0, offered_min - 1)
    assert kernel_select(selector, candidates, availability, Random(seed)) is None


def test_rarest_piece_as_only_candidate_is_never_suppressed():
    """The ISSUE's safety property in its sharpest form: a lone
    candidate at the rarest wanted tier always gets picked."""
    selector = bound_selector(1.0, 1)
    for seed in range(50):
        assert kernel_select(selector, [3], [9, 9, 9, 1], Random(seed)) == 3


def test_suppression_probability_is_respected():
    selector = bound_selector(0.5, 1)
    rng = Random(7)
    outcomes = [kernel_select(selector, [0], [4], rng) for __ in range(2000)]
    declines = sum(1 for outcome in outcomes if outcome is None)
    assert 850 < declines < 1150  # ~Binomial(2000, 0.5)


def test_kernel_matches_reference_on_a_crafted_offer():
    """One direct cross-check of the array kernel against its list-based
    reference (the selection-kernel and swarm-level differential tests
    cover the full dispatch)."""
    availability = [3, 1, 3, 2, 1, 3]
    offered = [0, 2, 3, 5]  # rarest tier absent
    for suppression, rarest in ((1.0, 1), (0.0, 1), (1.0, 2)):
        selector = bound_selector(suppression, rarest)
        rng_a, rng_b = Random(11), Random(11)
        picked_reference = reference_select(selector, offered, availability, rng_a)
        picked_kernel = kernel_select(selector, offered, availability, rng_b)
        assert picked_reference == picked_kernel
        assert rng_a.random() == rng_b.random()


def test_constructor_validates_suppression():
    with pytest.raises(ValueError):
        ModeSuppressionSelector(suppression=1.5)
    with pytest.raises(ValueError):
        ModeSuppressionSelector(suppression=-0.1)


def test_registered_in_selector_registry():
    assert "mode-suppression" in SELECTOR_REGISTRY
    selector = make_selector("mode-suppression:suppression=0.7")
    assert isinstance(selector, ModeSuppressionSelector)
    assert selector.suppression == 0.7
    assert "0.7" in repr(selector)


class TestWantedScarcity:
    """The picker-side oracle mode suppression is judged against."""

    def make_picker(self, num_pieces=6, have=(), indexed=True):
        block = 16
        geometry = PieceGeometry(
            num_pieces * 4 * block, piece_size=4 * block, block_size=block
        )
        bitfield = Bitfield(num_pieces, have=list(have))
        picker_class = PiecePicker if indexed else NaivePiecePicker
        return picker_class(
            geometry,
            bitfield,
            ModeSuppressionSelector(suppression=0.9),
            Random(3),
        )

    @pytest.mark.parametrize("indexed", [True, False])
    def test_tracks_rarest_missing_piece(self, indexed):
        picker = self.make_picker(indexed=indexed)
        picker.peer_joined(Bitfield(6, have=[0, 1]))
        picker.peer_joined(Bitfield(6, have=[0]))
        assert picker.wanted_scarcity() == 0  # pieces 2..5 have no copies

    @pytest.mark.parametrize("indexed", [True, False])
    def test_ignores_pieces_we_already_have(self, indexed):
        picker = self.make_picker(have=[2, 3, 4, 5], indexed=indexed)
        picker.peer_joined(Bitfield(6, have=[0, 1]))
        picker.peer_joined(Bitfield(6, have=[0]))
        assert picker.wanted_scarcity() == 1  # piece 1 is the rarest wanted

    @pytest.mark.parametrize("indexed", [True, False])
    def test_none_when_nothing_is_wanted(self, indexed):
        picker = self.make_picker(have=range(6), indexed=indexed)
        assert picker.wanted_scarcity() is None

    @pytest.mark.parametrize("indexed", [True, False])
    def test_oracle_is_bound_into_the_selector(self, indexed):
        picker = self.make_picker(indexed=indexed)
        selector = picker._selector
        assert selector._scarcity() == picker.wanted_scarcity()
