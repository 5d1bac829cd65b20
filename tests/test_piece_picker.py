"""Tests for the piece picker: availability accounting, random-first,
strict priority, end game, and failure paths."""

from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import piece_picker
from repro.core.piece_picker import PiecePicker
from repro.core.rarest_first import RarestFirstSelector
from repro.protocol.bitfield import Bitfield
from repro.protocol.metainfo import PieceGeometry

from tests.probes import pending_requests_to, total_blocks


def make_picker(
    num_pieces=8,
    blocks_per_piece=4,
    have=(),
    selector=None,
    seed=1,
    random_first_threshold=4,
    strict_priority=True,
    endgame_enabled=True,
):
    block = 16
    geometry = PieceGeometry(
        num_pieces * blocks_per_piece * block,
        piece_size=blocks_per_piece * block,
        block_size=block,
    )
    bitfield = Bitfield(num_pieces, have=have)
    picker = PiecePicker(
        geometry,
        bitfield,
        selector or RarestFirstSelector(),
        Random(seed),
        random_first_threshold=random_first_threshold,
        strict_priority=strict_priority,
        endgame_enabled=endgame_enabled,
    )
    return picker, bitfield, geometry


def full_remote(num_pieces=8):
    return Bitfield.full(num_pieces)


def complete_piece(picker, geometry, piece, peer="p"):
    """Receive every block of *piece* (assumes blocks already requested)."""
    for block in geometry.blocks(piece):
        picker.on_block_received(block, peer)


class TestAvailability:
    def test_join_and_leave(self):
        picker, __, __ = make_picker()
        remote = Bitfield(8, have=[0, 3])
        picker.peer_joined(remote)
        assert picker.availability == (1, 0, 0, 1, 0, 0, 0, 0)
        picker.peer_left(remote)
        assert picker.availability == (0,) * 8

    def test_have_message(self):
        picker, __, __ = make_picker()
        picker.remote_has(5)
        picker.remote_has(5)
        assert picker.availability[5] == 2

    def test_rarest_pieces_set(self):
        picker, __, __ = make_picker(num_pieces=4)
        picker.peer_joined(Bitfield(4, have=[0, 1]))
        picker.peer_joined(Bitfield(4, have=[0]))
        m, pieces = picker.rarest_pieces_set()
        assert m == 0
        assert pieces == [2, 3]

    def test_negative_availability_is_an_error(self):
        picker, __, __ = make_picker()
        with pytest.raises(RuntimeError):
            picker.peer_left(Bitfield(8, have=[0]))

    def test_an_empty_view_costs_the_matrix_backend_nothing(self, monkeypatch):
        """Every link opens on an empty placeholder view that the first
        BITFIELD replaces, and newcomers announce empty bitfields:
        accounting either is a no-op, not a whole-row unpack and add."""
        block = 16
        picker = PiecePicker(
            PieceGeometry(8 * block, piece_size=block, block_size=block),
            Bitfield(8),
            RarestFirstSelector(),
            Random(1),
            matrix=piece_picker.AvailabilityMatrix(8),
        )
        picker.peer_joined(Bitfield(8, have=[2]))

        def forbidden(bitfield):
            raise AssertionError("unpacked an empty view")

        monkeypatch.setattr(Bitfield, "as_vector", forbidden)
        picker.peer_left(Bitfield(8))
        picker.peer_joined(Bitfield(8))
        assert picker.availability == (0, 0, 1, 0, 0, 0, 0, 0)


class TestAvailabilityMatrixIncrement:
    """The batched add behind the HAVE fan-out: one piece, many rows."""

    def test_unique_slots_each_gain_one_copy(self):
        matrix = piece_picker.AvailabilityMatrix(6, capacity=4)
        slots = [matrix.acquire() for __ in range(4)]
        matrix.increment([slots[0], slots[2]], 5)
        matrix.increment([slots[2]], 5)
        matrix.increment([], 1)
        assert matrix.data[:, 5].tolist() == [1, 0, 2, 0]
        assert int(matrix.data.sum()) == 3  # no other cell moved

    def test_right_after_acquire_grew_and_reallocated_the_rows(self):
        matrix = piece_picker.AvailabilityMatrix(4, capacity=2)
        first = [matrix.acquire(), matrix.acquire()]
        matrix.increment(first, 3)
        before = matrix.data
        grown = matrix.acquire()  # full: doubles into a new array
        assert matrix.data is not before
        matrix.increment(first + [grown], 3)
        assert [int(matrix.data[slot, 3]) for slot in first + [grown]] == [2, 2, 1]
        assert before[:, 3].tolist() == [1, 1]  # the old array is dead, not aliased

    def test_duplicate_slots_are_asserted_against(self):
        """A fancy-indexed add applies a repeated index once: silently
        losing a count is the one thing this must never do.  The check
        lives where the index is built — once per target cache, not once
        per flood — and a raw list handed to ``increment`` is still a
        list that gets built, so it is still checked."""
        matrix = piece_picker.AvailabilityMatrix(4)
        slot, other = matrix.acquire(), matrix.acquire()
        with pytest.raises(AssertionError):
            matrix.slot_index([slot, other, slot])
        with pytest.raises(AssertionError):
            matrix.increment([slot, slot], 0)
        assert int(matrix.data.sum()) == 0

    def test_a_built_index_adds_what_the_raw_list_adds(self):
        matrix = piece_picker.AvailabilityMatrix(6, capacity=4)
        slots = [matrix.acquire() for __ in range(4)]
        index = matrix.slot_index([slots[3], slots[0]])
        assert index.dtype == piece_picker._np.intp
        assert index.tolist() == [slots[3], slots[0]]
        matrix.increment(index, 2)
        matrix.increment(index, 2)
        matrix.increment([slots[3], slots[0]], 2)
        assert matrix.data[:, 2].tolist() == [3, 0, 0, 3]
        assert int(matrix.data.sum()) == 6  # no other cell moved


class TestRandomFirstPolicy:
    def test_random_before_threshold(self):
        """Below 4 pieces the pick ignores rarity (it is random)."""
        picks = set()
        for seed in range(30):
            picker, __, geometry = make_picker(seed=seed, num_pieces=8)
            # piece 7 is by far the rarest
            picker.peer_joined(Bitfield(8, have=list(range(7))))
            picker.peer_joined(Bitfield(8, have=list(range(7))))
            picker.remote_has(7)  # never mind: 7 has 1 copy, others 2
            block = picker.next_request(full_remote(), "p")
            picks.add(block.piece)
        assert len(picks) > 1  # not always the rarest piece

    def test_rarest_after_threshold(self):
        picker, bitfield, geometry = make_picker(num_pieces=8, have=[0, 1, 2, 3])
        picker.peer_joined(Bitfield(8, have=[4, 5, 6, 7]))
        picker.peer_joined(Bitfield(8, have=[4, 5, 6]))
        # piece 7 has 1 copy, pieces 4-6 have 2: rarest first must pick 7.
        block = picker.next_request(full_remote(), "p")
        assert block.piece == 7

    def test_threshold_counts_held_pieces(self):
        picker, bitfield, geometry = make_picker(
            num_pieces=8, have=[0, 1, 2], random_first_threshold=4
        )
        assert bitfield.count == 3  # still below threshold: random pick
        picker.peer_joined(Bitfield(8, have=[3, 4, 5, 6]))
        block = picker.next_request(full_remote(), "p")
        assert block is not None


class TestStrictPriority:
    def test_finishes_started_piece_first(self):
        picker, __, geometry = make_picker(num_pieces=4, have=[])
        picker.peer_joined(full_remote(4))
        first = picker.next_request(full_remote(4), "p")
        second = picker.next_request(full_remote(4), "p")
        assert second.piece == first.piece
        assert second.offset != first.offset

    def test_priority_spans_peers(self):
        picker, __, geometry = make_picker(num_pieces=4)
        picker.peer_joined(full_remote(4))
        first = picker.next_request(full_remote(4), "peer-a")
        second = picker.next_request(full_remote(4), "peer-b")
        assert second.piece == first.piece

    def test_priority_skips_pieces_remote_lacks(self):
        picker, __, geometry = make_picker(num_pieces=4, have=[])
        picker.peer_joined(full_remote(4))
        first = picker.next_request(full_remote(4), "peer-a")
        # peer-b lacks the active piece entirely: must start another one.
        other = Bitfield(4, have=[p for p in range(4) if p != first.piece])
        block = picker.next_request(other, "peer-b")
        assert block.piece != first.piece

    def test_disabled_strict_priority_still_progresses(self):
        picker, __, geometry = make_picker(num_pieces=2, strict_priority=False)
        picker.peer_joined(full_remote(2))
        seen = set()
        for __ in range(8):
            block = picker.next_request(full_remote(2), "p")
            assert block is not None
            seen.add((block.piece, block.offset))
        assert len(seen) == 8  # every block of both pieces requested once


class TestBlockAccounting:
    def test_piece_completion(self):
        picker, bitfield, geometry = make_picker(num_pieces=2)
        picker.peer_joined(full_remote(2))
        blocks = []
        for __ in range(4):
            blocks.append(picker.next_request(full_remote(2), "p"))
        piece = blocks[0].piece
        for block in blocks[:-1]:
            completed, __ = picker.on_block_received(block, "p")
            assert not completed or block is blocks[-1]
        completed, __ = picker.on_block_received(blocks[-1], "p")
        assert completed
        assert bitfield.has(piece)
        assert piece not in picker.active_pieces

    def test_duplicate_block_ignored(self):
        picker, __, geometry = make_picker(num_pieces=2)
        picker.peer_joined(full_remote(2))
        block = picker.next_request(full_remote(2), "p")
        picker.on_block_received(block, "p")
        completed, cancels = picker.on_block_received(block, "p")
        assert not completed
        assert cancels == set()

    def test_block_after_piece_complete_ignored(self):
        picker, bitfield, geometry = make_picker(num_pieces=1)
        picker.peer_joined(full_remote(1))
        blocks = [picker.next_request(full_remote(1), "p") for __ in range(4)]
        for block in blocks:
            picker.on_block_received(block, "p")
        completed, __ = picker.on_block_received(blocks[0], "q")
        assert not completed

    def test_reset_piece_allows_redownload(self):
        picker, bitfield, geometry = make_picker(num_pieces=1)
        picker.peer_joined(full_remote(1))
        blocks = [picker.next_request(full_remote(1), "p") for __ in range(4)]
        for block in blocks:
            picker.on_block_received(block, "p")
        assert bitfield.has(0)
        picker.reset_piece(0)
        assert not bitfield.has(0)
        assert picker.next_request(full_remote(1), "p") is not None

    def test_on_peer_gone_releases_requests(self):
        picker, __, geometry = make_picker(num_pieces=1)
        picker.peer_joined(full_remote(1))
        first = picker.next_request(full_remote(1), "p")
        released = picker.on_peer_gone("p", pending_requests_to(picker, "p"))
        assert first in released
        # The same block is requestable again, by another peer.
        again = picker.next_request(full_remote(1), "q")
        assert again == first

    def test_on_peer_gone_keeps_partial_pieces(self):
        picker, __, geometry = make_picker(num_pieces=1)
        picker.peer_joined(full_remote(1))
        first = picker.next_request(full_remote(1), "p")
        picker.on_block_received(first, "p")
        second = picker.next_request(full_remote(1), "p")
        picker.on_peer_gone("p", pending_requests_to(picker, "p"))
        # piece has progress: stays active, next request resumes it
        assert picker.active_pieces == [first.piece]

    def test_released_blocks_rerequested_in_offset_order(self):
        """Blocks released by a departure re-enter the unrequested pool in
        offset order, interleaved correctly with never-requested blocks."""
        picker, __, geometry = make_picker(num_pieces=1, blocks_per_piece=6)
        picker.peer_joined(full_remote(1))
        for __ in range(4):  # blocks 0-3 in flight to p, 4-5 unrequested
            picker.next_request(full_remote(1), "p")
        released = picker.on_peer_gone("p", pending_requests_to(picker, "p"))
        assert [b.offset // 16 for b in released] == [0, 1, 2, 3]
        offsets = [
            picker.next_request(full_remote(1), "q").offset // 16
            for __ in range(6)
        ]
        assert offsets == [0, 1, 2, 3, 4, 5]

    def test_partial_release_interleaves_with_unrequested(self):
        picker, __, geometry = make_picker(num_pieces=1, blocks_per_piece=4)
        picker.peer_joined(full_remote(1))
        first = picker.next_request(full_remote(1), "p")   # block 0
        second = picker.next_request(full_remote(1), "q")  # block 1
        picker.on_block_received(first, "p")
        # block 1 released, 2-3 never requested
        picker.on_peer_gone("q", pending_requests_to(picker, "q"))
        offsets = [
            picker.next_request(full_remote(1), "r").offset // 16
            for __ in range(3)
        ]
        assert offsets == [1, 2, 3]

    def test_pending_requests_to(self):
        picker, __, geometry = make_picker(num_pieces=2)
        picker.peer_joined(full_remote(2))
        block = picker.next_request(full_remote(2), "p")
        assert pending_requests_to(picker, "p") == [block]
        assert pending_requests_to(picker, "q") == []


class TestEndGame:
    def test_endgame_triggers_when_all_requested(self):
        picker, __, geometry = make_picker(num_pieces=1)
        picker.peer_joined(full_remote(1))
        for __ in range(4):
            assert picker.next_request(full_remote(1), "p") is not None
        assert not picker.in_endgame
        block = picker.next_request(full_remote(1), "q")
        assert picker.in_endgame
        assert block is not None  # duplicate request to the second peer

    def test_endgame_does_not_duplicate_to_same_peer(self):
        picker, __, geometry = make_picker(num_pieces=1)
        picker.peer_joined(full_remote(1))
        for __ in range(4):
            picker.next_request(full_remote(1), "p")
        assert picker.next_request(full_remote(1), "p") is None

    def test_endgame_cancels_other_askers(self):
        picker, __, geometry = make_picker(num_pieces=1)
        picker.peer_joined(full_remote(1))
        blocks = [picker.next_request(full_remote(1), "p") for __ in range(4)]
        duplicate = picker.next_request(full_remote(1), "q")
        assert duplicate in blocks
        __, cancels = picker.on_block_received(duplicate, "p")
        assert cancels == {"q"}

    def test_endgame_disabled(self):
        picker, __, geometry = make_picker(num_pieces=1, endgame_enabled=False)
        picker.peer_joined(full_remote(1))
        for __ in range(4):
            picker.next_request(full_remote(1), "p")
        assert picker.next_request(full_remote(1), "q") is None
        assert not picker.in_endgame

    def test_no_endgame_while_unrequested_blocks_remain(self):
        picker, __, geometry = make_picker(num_pieces=2)
        picker.peer_joined(full_remote(2))
        picker.next_request(full_remote(2), "p")
        # 7 blocks still unrequested; peer q lacking both pieces gets None
        empty = Bitfield(2)
        assert picker.next_request(empty, "q") is None
        assert not picker.in_endgame

    def test_reset_piece_leaves_endgame(self):
        """A hash-failed piece means whole blocks are unrequested again,
        so the end-game flag must drop until everything is back in flight
        (regression: the flag used to stay stale after reset_piece)."""
        picker, bitfield, geometry = make_picker(num_pieces=1)
        picker.peer_joined(full_remote(1))
        blocks = [picker.next_request(full_remote(1), "p") for __ in range(4)]
        assert picker.next_request(full_remote(1), "q") is not None
        assert picker.in_endgame
        for block in blocks:
            picker.on_block_received(block, "p")
        assert bitfield.has(0)
        picker.reset_piece(0)  # hash check failed
        assert not picker.in_endgame
        # The re-download starts with fresh (non-duplicate) requests and
        # end game only re-triggers once every block is in flight again.
        seen = set()
        for __ in range(4):
            block = picker.next_request(full_remote(1), "p")
            seen.add(block.offset)
        assert len(seen) == 4
        assert picker.next_request(full_remote(1), "q") is not None
        assert picker.in_endgame

    def test_on_peer_gone_leaves_endgame(self):
        picker, __, geometry = make_picker(num_pieces=1)
        picker.peer_joined(full_remote(1))
        first = picker.next_request(full_remote(1), "p")
        picker.on_block_received(first, "p")
        for __ in range(3):
            picker.next_request(full_remote(1), "p")
        assert picker.next_request(full_remote(1), "q") is not None
        assert picker.in_endgame
        picker.on_peer_gone("p", pending_requests_to(picker, "p"))  # releases p's in-flight blocks
        assert not picker.in_endgame


class TestNothingToRequest:
    def test_uninteresting_remote(self):
        picker, __, geometry = make_picker(num_pieces=2, have=[0])
        remote = Bitfield(2, have=[0])
        assert picker.next_request(remote, "p") is None

    def test_seed_requests_nothing(self):
        picker, __, geometry = make_picker(num_pieces=2, have=[0, 1])
        assert picker.next_request(full_remote(2), "p") is None


@settings(max_examples=30)
@given(
    num_pieces=st.integers(1, 12),
    blocks_per_piece=st.integers(1, 4),
    seed=st.integers(0, 1000),
)
def test_property_full_download_terminates(num_pieces, blocks_per_piece, seed):
    """Requesting and receiving everything completes the bitfield, with
    each block requested exactly once (single peer, no end game dupes)."""
    picker, bitfield, geometry = make_picker(
        num_pieces=num_pieces, blocks_per_piece=blocks_per_piece, seed=seed
    )
    remote = Bitfield.full(num_pieces)
    picker.peer_joined(remote)
    requested = []
    while True:
        block = picker.next_request(remote, "p")
        if block is None:
            break
        requested.append(block)
        picker.on_block_received(block, "p")
    assert bitfield.is_complete()
    assert len(requested) == total_blocks(geometry)
    assert len(set(requested)) == len(requested)
