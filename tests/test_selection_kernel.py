"""The picker's array selection kernel against its two references.

``PiecePicker._select_new_piece`` computes the candidate array and its
gathered copy counts and calls the strategy's ``select``.  Two oracles
pick from the same state without either: the naive picker of
``tests/reference_piece_picker.py``, which scans the bitfield into a
candidate list, and the list-based selector of
``tests/reference_selectors.py`` over the candidate list and the flat
counts.  The contract is that the three are the same function: same
piece (or ``None``), same RNG consumption.

The swarm-level differentials in ``test_picker_equivalence.py`` pin that
on whole runs; here the pickers are put into the *same* arbitrary
state — own bitfield, remote offer, started pieces, copy counts — and
asked for one pick each, so the property reaches the corners a seeded
swarm rarely visits: a piece count that is not a multiple of 8, piece 0
and the last piece, an empty candidate set, every candidate already
started, a mode-suppression decline.  A second family reaches the
``mega_swarm`` geometry: up to 2,048 pieces, a one-piece offer, a
seed's full offer, and offers of a drawn size in between.
"""

from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.piece_picker import PiecePicker
from repro.core.rarest_first import (
    SELECTOR_REGISTRY,
    GlobalRarestSelector,
    SequentialSelector,
    make_selector,
)
from repro.protocol.bitfield import Bitfield
from repro.protocol.metainfo import PieceGeometry, make_metainfo
from repro.sim.config import KIB, PeerConfig, SwarmConfig
from repro.sim.swarm import Swarm

from tests.reference_piece_picker import NaivePiecePicker
from tests.reference_selectors import reference_select

BLOCK = 16
BACKENDS = ("matrix", "naive")

#: Every registered strategy (mode suppression also at certainty, so a
#: decline is a one-draw event), the programmatic global-rarest oracle,
#: and the random-first policy that precedes them all.
STRATEGIES = sorted(SELECTOR_REGISTRY) + [
    "mode-suppression:suppression=1.0",
    "global-rarest",
    "random-first",
]


def build_selector(strategy, global_counts):
    if strategy == "global-rarest":
        return GlobalRarestSelector(lambda: global_counts)
    if strategy == "random-first":
        return make_selector("rarest-first")  # never reached
    return make_selector(strategy)


def build_picker(backend, strategy, case):
    num_pieces = len(case["availability"])
    geometry = PieceGeometry(
        num_pieces * 2 * BLOCK, piece_size=2 * BLOCK, block_size=BLOCK
    )
    picker_class = NaivePiecePicker if backend == "naive" else PiecePicker
    picker = picker_class(
        geometry,
        Bitfield(num_pieces, have=case["own"]),
        build_selector(strategy, case["global_counts"]),
        Random(case["seed"]),
        # Random first either always applies or never does.
        random_first_threshold=(
            num_pieces + 1 if strategy == "random-first" else 0
        ),
    )
    for piece, copies in enumerate(case["availability"]):
        for __ in range(copies):
            picker.remote_has(piece)
    # Start the active pieces through the public path, under a strategy
    # that can neither decline nor pick anything but the one piece on
    # offer.
    strategy_selector = picker._selector
    picker._selector = SequentialSelector()
    for piece in case["active"]:
        starter = Bitfield(num_pieces, have=[piece])
        assert picker.next_request(starter, "starter").piece == piece
    picker._selector = strategy_selector
    return picker


def check_lockstep(strategy, case):
    """One pick per picker, and one by the reference selector, from the
    same state; returns the outcome."""
    remote = Bitfield(len(case["availability"]), have=case["remote"])
    outcomes = {}
    for backend in BACKENDS:
        picker = build_picker(backend, strategy, case)
        piece = picker._select_new_piece(remote)
        outcomes[backend] = (piece, picker._rng.getstate())
    candidates = sorted(set(case["remote"]) - set(case["own"]) - set(case["active"]))
    # The reference selector picks with a fresh picker's bound selector,
    # counts and RNG (starting the active pieces may have drawn).
    picker = build_picker("naive", strategy, case)
    piece = None
    if candidates:
        selector = (
            picker._random_selector if strategy == "random-first" else picker._selector
        )
        piece = reference_select(selector, candidates, picker.availability, picker._rng)
    outcomes["reference"] = (piece, picker._rng.getstate())
    assert outcomes["matrix"] == outcomes["naive"] == outcomes["reference"]
    piece = outcomes["matrix"][0]
    if piece is None:
        assert not candidates or strategy.startswith("mode-suppression")
    else:
        assert type(piece) is int  # not a numpy scalar: it keys dicts and shifts
        assert piece in candidates
    return piece


@st.composite
def picker_states(draw):
    num_pieces = draw(st.integers(1, 41))
    indices = st.integers(0, num_pieces - 1)
    own = draw(st.sets(indices))
    missing = sorted(set(range(num_pieces)) - own)
    return {
        "own": sorted(own),
        "remote": sorted(draw(st.sets(indices))),
        "active": draw(st.lists(st.sampled_from(missing), unique=True))
        if missing
        else [],
        "availability": draw(
            st.lists(st.integers(0, 4), min_size=num_pieces, max_size=num_pieces)
        ),
        "global_counts": draw(
            st.lists(st.integers(0, 9), min_size=num_pieces, max_size=num_pieces)
        ),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


@pytest.mark.parametrize("strategy", STRATEGIES)
@settings(max_examples=120, deadline=None)
@given(case=picker_states())
def test_matrix_kernel_in_lockstep_with_both_references(strategy, case):
    check_lockstep(strategy, case)


@st.composite
def wide_picker_states(draw):
    """Up to 2,048 pieces.  The offer is one piece, a drawn number of
    pieces, or a seed's full bitfield (whatever the own pieces leave of
    it).  The layout comes from one drawn seed, since Hypothesis draws a
    set of thousands of elements slowly; the shape, piece count,
    densities and count range are drawn directly."""
    shape = draw(st.sampled_from(["one", "some", "seed"]))
    size = None if shape == "seed" else 1
    if shape == "some":
        size = draw(st.integers(2, 256))
    num_pieces = draw(st.one_of(st.just(2048), st.integers(size or 1, 2048)))
    own_share = draw(st.sampled_from([0.0, 0.1, 0.5, 0.9]))
    top_count = draw(st.sampled_from([0, 1, 3, 8]))
    layout = Random(draw(st.integers(0, 2**32 - 1)))
    pieces = list(range(num_pieces))
    if shape == "seed":
        offered = []
        own = {piece for piece in pieces if layout.random() < own_share}
    else:
        offered = layout.sample(pieces, size)
        rest = sorted(set(pieces) - set(offered))
        own = {piece for piece in rest if layout.random() < own_share}
    missing = sorted(set(pieces) - own - set(offered))
    active = layout.sample(missing, min(len(missing), layout.randint(0, 12)))
    if shape == "seed":
        remote = pieces
    else:
        # Owned and started pieces on offer too: they are not candidates.
        extras = sorted(own) + active
        remote = sorted(set(offered) | set(layout.sample(extras, len(extras) // 2)))
    return {
        "own": sorted(own),
        "remote": remote,
        "active": active,
        "availability": [layout.randint(0, top_count) for __ in pieces],
        "global_counts": [layout.randint(0, 9) for __ in pieces],
        "seed": layout.getrandbits(32),
        "offer_size": size,
    }


@pytest.mark.parametrize("strategy", STRATEGIES)
@settings(max_examples=25, deadline=None)
@given(case=wide_picker_states())
def test_mega_swarm_geometry_in_lockstep_with_both_references(strategy, case):
    candidates = set(case["remote"]) - set(case["own"]) - set(case["active"])
    if case["offer_size"] is not None:
        assert len(candidates) == case["offer_size"]
    check_lockstep(strategy, case)


def crafted(num_pieces, own=(), remote=(), active=(), availability=None):
    return {
        "own": list(own),
        "remote": list(remote),
        "active": list(active),
        "availability": list(availability or [1] * num_pieces),
        "global_counts": list(range(num_pieces, 0, -1)),
        "seed": 5,
    }


@pytest.mark.parametrize("strategy", STRATEGIES)
class TestCorners:
    def test_ragged_last_byte_first_and_last_piece(self, strategy):
        """13 pieces: 3 valid bits in the last byte; only the two end
        pieces are on offer."""
        case = crafted(13, remote=[0, 12])
        assert check_lockstep(strategy, case) in (0, 12)
        case = crafted(13, own=range(12), remote=range(13))
        assert check_lockstep(strategy, case) == 12
        case = crafted(13, own=range(1, 13), remote=range(13))
        assert check_lockstep(strategy, case) == 0

    def test_empty_candidate_set_draws_nothing(self, strategy):
        for case in (
            crafted(11, remote=[]),
            crafted(11, own=[1, 4, 10], remote=[1, 4, 10]),
        ):
            assert check_lockstep(strategy, case) is None
            fresh = Random(case["seed"]).getstate()
            picker = build_picker("matrix", strategy, case)
            remote = Bitfield(11, have=case["remote"])
            picker._select_new_piece(remote)
            assert picker._rng.getstate() == fresh

    def test_every_candidate_already_started(self, strategy):
        case = crafted(10, own=[0], remote=[0, 3, 9], active=[9, 3])
        assert check_lockstep(strategy, case) is None


def test_mode_suppression_declines_in_lockstep():
    """The offer (2 copies each) sits above the rarest wanted tier (piece
    5, 1 copy, not offered): certain suppression declines, in the kernel
    and both references, after exactly one variate."""
    case = crafted(
        9, remote=[0, 8], availability=[2, 1, 1, 1, 1, 1, 1, 1, 2], own=[1, 2, 3, 4, 6, 7]
    )
    assert check_lockstep("mode-suppression:suppression=1.0", case) is None
    picker = build_picker("matrix", "mode-suppression:suppression=1.0", case)
    expected = Random(case["seed"])
    expected.random()
    picker._select_new_piece(Bitfield(9, have=case["remote"]))
    assert picker._rng.getstate() == expected.getstate()
    # Without the oracle's verdict the same offer is served.
    assert check_lockstep("mode-suppression:suppression=0.0", case) in (0, 8)


@pytest.mark.parametrize("spec", sorted(SELECTOR_REGISTRY))
def test_matrix_swarm_never_scans_candidates_in_python(spec, monkeypatch):
    """No pick — random first included — may fall back to a per-piece
    scan.  The scan is ``tests.probes.pieces_only_in``, out of reach of
    ``src/``; a ``Bitfield.pieces_only_in`` that grew back would fail."""

    def forbidden(self, other):
        raise AssertionError("pieces_only_in called by a production picker")

    monkeypatch.setattr(Bitfield, "pieces_only_in", forbidden, raising=False)
    metainfo = make_metainfo(
        "kernel-guard", num_pieces=21, piece_size=4 * KIB, block_size=1 * KIB
    )
    swarm = Swarm(metainfo, SwarmConfig(seed=13))
    rng = Random(13)
    swarm.add_peer(
        config=PeerConfig(upload_capacity=8 * KIB),
        is_seed=True,
        selector=make_selector(spec),
    )
    for __ in range(5):
        swarm.schedule_arrival(
            rng.uniform(0.0, 20.0),
            config=PeerConfig(upload_capacity=rng.choice([2, 4, 8]) * KIB),
            selector=make_selector(spec),
        )
    result = swarm.run(400)
    assert result.bytes_moved > 0
    assert len(result.completions) == 5
