"""Differentials for the fluid tick's exact fast paths.

* The node-index allocation kernel ``max_min_rates`` against the scalar
  oracle of ``tests/reference_allocator.py``, on networks shaped like
  the swarm's: upload node ``2s`` and download node ``2s + 1`` per slot,
  ``inf`` for a slot that never joined or departed, zero-capacity
  (dead) nodes, spare never-named slots at the end of the array.
* ``Swarm._tick``'s one-frame advance, taken by a turn that finishes no
  block, against ``Peer.advance_uploads`` on the same state.
* ``BlockRef`` as a tuple against the frozen dataclass it replaced.

Every float is compared with ``==`` or bit for bit, never approximately.
"""

import math
import pickle
from dataclasses import make_dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.protocol.metainfo import BlockRef
from repro.sim.bandwidth import INF, Flow, max_min_allocation, max_min_rates
from repro.sim.peer import Peer

from tests.conftest import fast_config, tiny_swarm
from tests.reference_allocator import reference_max_min_rates

# ---------------------------------------------------------------------------
# the allocation kernel
# ---------------------------------------------------------------------------

NODE_CAPS = st.one_of(
    st.just(INF),  # never joined, departed, or an uncapped download
    st.just(0.0),  # dead: every flow through it gets rate 0
    st.floats(min_value=0.0, max_value=1e4, allow_nan=False, allow_infinity=False),
)


@st.composite
def slot_networks(draw):
    """(up nodes, down nodes, capacities) over swarm-style node slots."""
    num_slots = draw(st.integers(min_value=1, max_value=8))
    spare = draw(st.integers(min_value=0, max_value=3))
    capacities = [draw(NODE_CAPS) for __ in range(2 * num_slots)]
    capacities += [INF] * (2 * spare)
    slots = st.integers(min_value=0, max_value=num_slots - 1)
    pairs = draw(st.lists(st.tuples(slots, slots), max_size=24))
    up = np.array([2 * uploader for uploader, __ in pairs], dtype=np.intp)
    down = np.array([2 * downloader + 1 for __, downloader in pairs], dtype=np.intp)
    return up, down, np.array(capacities, dtype=np.float64)


def as_flows(up, down, capacities):
    """The same network as ``Flow`` objects and two capacity maps."""
    flows = [Flow(int(u) // 2, int(d) // 2) for u, d in zip(up, down)]
    uploads = {s: capacities[2 * s] for s in range(len(capacities) // 2)}
    downloads = {s: capacities[2 * s + 1] for s in range(len(capacities) // 2)}
    return (
        flows,
        {s: float(c) for s, c in uploads.items() if c != INF},
        {s: float(c) for s, c in downloads.items() if c != INF},
    )


class TestSlotKernel:
    @given(slot_networks())
    @settings(max_examples=300, deadline=None)
    def test_kernel_matches_reference(self, network):
        up, down, capacities = network
        assert (
            max_min_rates(up, down, capacities).tolist()
            == reference_max_min_rates(up, down, capacities).tolist()
        )

    @given(slot_networks())
    @settings(max_examples=100, deadline=None)
    def test_flow_adapter_is_the_kernel(self, network):
        up, down, capacities = network
        flows, uploads, downloads = as_flows(up, down, capacities)
        max_min_allocation(flows, uploads, downloads)
        assert [flow.rate for flow in flows] == max_min_rates(
            up, down, capacities
        ).tolist()

    @given(slot_networks())
    @settings(max_examples=50, deadline=None)
    def test_kernel_leaves_its_inputs_alone(self, network):
        """The swarm hands the kernel its live capacity array."""
        up, down, capacities = network
        before = (up.copy(), down.copy(), capacities.copy())
        max_min_rates(up, down, capacities)
        assert up.tolist() == before[0].tolist()
        assert down.tolist() == before[1].tolist()
        assert capacities.tolist() == before[2].tolist()

    def test_all_unconstrained_set(self):
        up = np.array([0, 2, 4], dtype=np.intp)
        down = np.array([3, 5, 1], dtype=np.intp)
        capacities = np.full(8, INF)
        assert max_min_rates(up, down, capacities).tolist() == [INF] * 3
        assert reference_max_min_rates(up, down, capacities).tolist() == [INF] * 3

    def test_never_joined_departed_and_dead_nodes(self):
        # slot 0 capped, slot 1 never joined, slot 2 departed (both inf),
        # slot 3 a zero-capacity uploader.
        capacities = np.array([10.0, 4.0, INF, INF, INF, INF, 0.0, INF])
        up = np.array([0, 0, 2, 6, 4], dtype=np.intp)
        down = np.array([3, 5, 1, 3, 7], dtype=np.intp)
        rates = max_min_rates(up, down, capacities).tolist()
        assert rates == reference_max_min_rates(up, down, capacities).tolist()
        assert rates == [5.0, 5.0, 4.0, 0.0, INF]

    def test_peer_uploads_and_downloads_in_one_set(self):
        # Slot 0 uploads to slot 1 and downloads from it; its download
        # cap binds the second flow, its upload cap the first.
        capacities = np.array([6.0, 2.0, 9.0, INF])
        up = np.array([0, 2], dtype=np.intp)
        down = np.array([3, 1], dtype=np.intp)
        rates = max_min_rates(up, down, capacities).tolist()
        assert rates == reference_max_min_rates(up, down, capacities).tolist()
        assert rates == [6.0, 2.0]

    def test_empty_flow_set(self):
        empty = np.array([], dtype=np.intp)
        assert max_min_rates(empty, empty, np.full(4, INF)).tolist() == []


# ---------------------------------------------------------------------------
# the one-frame advance
# ---------------------------------------------------------------------------

def linked(warm):
    """A seed and a leecher with an established link, optionally run for
    25 s so both windows hold samples, some about to expire."""
    swarm = tiny_swarm(num_pieces=64)
    seed = swarm.add_peer(config=fast_config(), is_seed=True)
    leecher = swarm.add_peer(config=fast_config())
    if warm:
        swarm.run(25.0)
    link = seed.connections[leecher.address]
    return swarm, seed, leecher, link, link.twin


def bits(value):
    return float(value).hex()


def window(counter):
    return (
        [(when, bits(amount)) for when, amount in counter._samples],
        bits(counter._total),
        bits(counter.total),
    )


def observed(swarm, seed, leecher, link, twin):
    return (
        bits(link.upload_progress),
        list(link.upload_queue),
        window(link.uploaded),
        window(twin.downloaded),
        bits(seed.total_uploaded),
        bits(leecher.total_downloaded),
        bits(swarm.result.bytes_moved),
    )


@st.composite
def advance_cases(draw):
    lengths = draw(
        st.lists(st.integers(min_value=1, max_value=4096), min_size=1, max_size=5)
    )
    head_progress = draw(st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
    progress = head_progress * lengths[0]
    threshold = lengths[0] - progress - 1e-9
    straddle = threshold
    for __ in range(draw(st.integers(min_value=0, max_value=3))):
        straddle = math.nextafter(straddle, draw(st.sampled_from([0.0, INF])))
    budget = draw(
        st.one_of(
            st.just(straddle),
            st.just(0.0),
            st.floats(
                min_value=0.0,
                max_value=2.0 * sum(lengths),
                allow_nan=False,
                allow_infinity=False,
            ),
        )
    )
    return {
        "lengths": lengths,
        "progress": progress,
        "budget": budget,
        "twin": draw(st.sampled_from(["open", "closed", "none"])),
        "warm": draw(st.booleans()),
    }


def staged(case):
    """The link in the state *case* describes; identical on every call."""
    swarm, seed, leecher, link, twin = linked(case["warm"])
    link.am_choking = False
    link.upload_queue.clear()
    link.upload_queue.extend(
        BlockRef(piece, 0, length) for piece, length in enumerate(case["lengths"])
    )
    link.upload_progress = case["progress"]
    if case["twin"] == "closed":
        twin.closed = True
    elif case["twin"] == "none":
        link.twin = None
    return swarm, seed, leecher, link, twin


def tick_with_budget(swarm, link, budget):
    """One ``Swarm._tick`` whose only turn is *link*'s, at *budget*."""
    swarm._upload_candidates = {link}
    swarm._active_connections = [link]
    swarm._budgets = [budget]
    swarm._flows_generation = swarm._members_generation
    swarm._tick()


class TestOneFrameAdvance:
    @given(advance_cases())
    @settings(max_examples=150, deadline=None)
    def test_tick_turn_equals_advance_uploads(self, case):
        budget = case["budget"]
        need = case["lengths"][0] - case["progress"]
        one_frame = 0.0 < budget < need - 1e-9

        # The reference: the turn as Peer.advance_uploads takes it.
        swarm, seed, leecher, link, twin = staged(case)
        swarm.result.bytes_moved += seed.advance_uploads(link, budget)
        expected = observed(swarm, seed, leecher, link, twin)

        # The tick's turn, with its cached budget forced to *budget*.
        swarm, seed, leecher, link, twin = staged(case)
        calls = []
        advance = Peer.advance_uploads

        def counting(peer, connection, num_bytes):
            calls.append(num_bytes)
            return advance(peer, connection, num_bytes)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Peer, "advance_uploads", counting)
            tick_with_budget(swarm, link, budget)
        assert observed(swarm, seed, leecher, link, twin) == expected
        # Not vacuous: the turns the rule covers stay in the tick's frame,
        # every other turn still goes through Peer.advance_uploads.
        assert calls == ([] if one_frame else [budget])

    def test_straddling_budgets_take_both_paths(self):
        """The completion test's boundary, one ulp either side."""
        case = {"lengths": [1024], "progress": 1000.25, "twin": "open", "warm": False}
        threshold = 1024 - 1000.25 - 1e-9
        for step, completes in ((0.0, False), (INF, True)):
            swarm, __, __, link, __ = staged(case)
            tick_with_budget(swarm, link, math.nextafter(threshold, step))
            assert (link.upload_progress == 0.0) == completes


# ---------------------------------------------------------------------------
# BlockRef
# ---------------------------------------------------------------------------


def _validate(self):
    if self.piece < 0 or self.offset < 0 or self.length <= 0:
        raise ValueError("invalid block reference %r" % (self,))


#: The frozen dataclass ``BlockRef`` was before it became a tuple.
DataclassBlockRef = make_dataclass(
    "BlockRef",
    [("piece", int), ("offset", int), ("length", int)],
    frozen=True,
    namespace={"__post_init__": _validate},
)

TRIPLES = st.tuples(
    st.integers(min_value=0, max_value=2**31),
    st.integers(min_value=0, max_value=2**31),
    st.integers(min_value=1, max_value=2**20),
)


class TestBlockRefIsTheDataclass:
    @given(TRIPLES)
    def test_hash_fields_and_repr(self, triple):
        block = BlockRef(*triple)
        reference = DataclassBlockRef(*triple)
        assert hash(block) == hash(triple) == hash(reference)
        assert (block.piece, block.offset, block.length) == triple
        assert repr(block) == repr(reference)
        assert BlockRef(piece=triple[0], offset=triple[1], length=triple[2]) == block

    @given(
        st.tuples(
            st.integers(min_value=-5, max_value=5),
            st.integers(min_value=-5, max_value=5),
            st.integers(min_value=-5, max_value=5),
        )
    )
    def test_validation_errors_unchanged(self, triple):
        try:
            DataclassBlockRef(*triple)
        except ValueError as error:
            with pytest.raises(ValueError) as raised:
                BlockRef(*triple)
            assert str(raised.value) == str(error)
        else:
            assert tuple(BlockRef(*triple)) == triple

    @given(TRIPLES)
    def test_pickle_round_trip(self, triple):
        block = BlockRef(*triple)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            again = pickle.loads(pickle.dumps(block, protocol))
            assert type(again) is BlockRef
            assert again == block and hash(again) == hash(block)

    def test_immutable(self):
        block = BlockRef(1, 2, 3)
        with pytest.raises(AttributeError):
            block.piece = 4

    @given(st.lists(TRIPLES, unique=True, max_size=64))
    def test_set_order_matches_the_dataclass(self, triples):
        blocks = {BlockRef(*triple) for triple in triples}
        reference = {DataclassBlockRef(*triple) for triple in triples}
        assert [tuple(block) for block in blocks] == [
            (ref.piece, ref.offset, ref.length) for ref in reference
        ]
