"""Randomised invariant checks for the picker's incremental state.

A seeded ``random.Random`` drives a PiecePicker through arbitrary
interleavings of the operations a real session produces — peers joining
and leaving, HAVE messages, block requests, block receipts, hash
failures — and after every step the incremental structures are compared
against a from-scratch recount:

* availability counts are non-negative and equal the sum of the
  tracked remote bitfields;
* the wanted mask, and its big-integer mirror, hold exactly the
  missing, not-yet-started pieces, and the wanted scarcity is the
  smallest count among them;
* every partial piece's blocks are partitioned between received,
  requested and unrequested, with unrequested sorted in descending
  index order (the O(1)-pop representation);
* the O(1) end-game trigger (open-partials counter + active/missing
  counts) agrees with the naive every-missing-piece scan.

The driver uses only the standard library so the invariants stay
reproducible from the seed alone.
"""

from random import Random

import pytest

from repro.core.piece_picker import PiecePicker
from repro.core.rarest_first import RarestFirstSelector
from repro.protocol.bitfield import Bitfield
from repro.protocol.metainfo import PieceGeometry

from tests.probes import missing_indices, pending_requests_to

NUM_PIECES = 16
BLOCKS_PER_PIECE = 3
BLOCK = 16


def make_picker(seed):
    geometry = PieceGeometry(
        NUM_PIECES * BLOCKS_PER_PIECE * BLOCK,
        piece_size=BLOCKS_PER_PIECE * BLOCK,
        block_size=BLOCK,
    )
    bitfield = Bitfield(NUM_PIECES)
    picker = PiecePicker(
        geometry, bitfield, RarestFirstSelector(), Random(seed)
    )
    return picker, bitfield, geometry


def check_invariants(picker, bitfield, remotes):
    # Availability: non-negative and exactly the recount over remotes.
    expected = [0] * NUM_PIECES
    for remote in remotes.values():
        for piece in remote.have_indices():
            expected[piece] += 1
    availability = list(picker.availability)
    assert all(count >= 0 for count in availability)
    assert availability == expected

    # Wanted mask and its big-integer mirror: exactly the missing,
    # not-started pieces; the scarcity oracle reads the rarest of them.
    active = set(picker.active_pieces)
    wanted = {
        piece
        for piece in range(NUM_PIECES)
        if not bitfield.has(piece) and piece not in active
    }
    assert set(picker._wanted_mask.nonzero()[0].tolist()) == wanted
    assert picker._wanted_int == Bitfield(NUM_PIECES, have=wanted).as_int()
    assert picker.wanted_scarcity() == (
        min(availability[piece] for piece in wanted) if wanted else None
    )

    # Rarest pieces set agrees with a naive scan of the counts.
    m, pieces = picker.rarest_pieces_set()
    assert m == min(availability)
    assert pieces == [p for p in range(NUM_PIECES) if availability[p] == m]

    # Block partition per partial piece, and the open-partials counter.
    open_partials = 0
    for piece in active:
        partial = picker._active[piece]
        received = set(partial.received)
        requested = set(partial.requested)
        unrequested = set(partial.unrequested)
        assert not received & requested
        assert not received & unrequested
        assert not requested & unrequested
        assert received | requested | unrequested == set(
            range(len(partial.blocks))
        )
        assert partial.unrequested == sorted(partial.unrequested, reverse=True)
        if partial.unrequested:
            open_partials += 1
    assert picker._open_partials == open_partials

    # O(1) end-game trigger vs the naive every-missing-piece scan.
    naive_all_requested = all(
        piece in active and not picker._active[piece].unrequested
        for piece in missing_indices(bitfield)
    )
    assert picker._all_blocks_requested() == naive_all_requested


@pytest.mark.parametrize("seed", range(8))
def test_random_operations_preserve_invariants(seed):
    rng = Random(seed)
    picker, bitfield, geometry = make_picker(seed)
    remotes = {}  # peer key -> its tracked bitfield
    next_peer = 0

    def random_remote():
        pieces = rng.sample(
            range(NUM_PIECES), rng.randint(1, NUM_PIECES)
        )
        return Bitfield(NUM_PIECES, have=pieces)

    for __ in range(300):
        op = rng.random()
        if op < 0.15 or not remotes:
            key = "peer-%d" % next_peer
            next_peer += 1
            remotes[key] = random_remote()
            picker.peer_joined(remotes[key])
        elif op < 0.25 and len(remotes) > 1:
            key = rng.choice(sorted(remotes))
            picker.on_peer_gone(key, pending_requests_to(picker, key))
            picker.peer_left(remotes.pop(key))
        elif op < 0.40:
            key = rng.choice(sorted(remotes))
            missing = [
                piece
                for piece in range(NUM_PIECES)
                if not remotes[key].has(piece)
            ]
            if missing:
                piece = rng.choice(missing)
                remotes[key].set(piece)
                picker.remote_has(piece)
        elif op < 0.80:
            key = rng.choice(sorted(remotes))
            block = picker.next_request(remotes[key], key)
            if block is not None and rng.random() < 0.8:
                picker.on_block_received(block, key)
        elif op < 0.90:
            have = list(bitfield.have_indices())
            if have:
                picker.reset_piece(rng.choice(have))
        else:
            key = rng.choice(sorted(remotes))
            released = picker.on_peer_gone(key, pending_requests_to(picker, key))
            offsets = [b.offset for b in released]
            assert offsets == sorted(offsets) or len(set(
                b.piece for b in released
            )) > 1
        check_invariants(picker, bitfield, remotes)

    assert next_peer > 0  # the driver actually exercised the picker
