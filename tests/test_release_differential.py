"""``PiecePicker.on_peer_gone`` against the full-scan release it replaced.

A CHOKE and a closed link each hand the picker the link's
``request_times`` and the picker releases only those blocks;
``tests/reference_piece_picker.full_scan_on_peer_gone`` walks
every block in flight of every partial piece instead.  Two pickers are
put through the *same* arbitrary script — requests pipelined to four
links, deliveries of any block a link holds (stale ones included),
end-game duplicates and the CANCELs they earn, HAVEs, hash failures and
``reset_piece`` on active pieces, which leaves stale entries on links —
and at every release they must hand back the same blocks, the production
one in the order its caller passed them.  After every step the two must
agree on the active pieces (received, requested with its askers, and
the unrequested order), the open-partials count, the wanted mask and its
integer twin, the end-game flag, the bitfield and the RNG state.
"""

from random import Random

from hypothesis import given, settings, strategies as st

from repro.core.piece_picker import PiecePicker
from repro.core.rarest_first import RarestFirstSelector
from repro.protocol.bitfield import Bitfield
from repro.protocol.metainfo import PieceGeometry

from tests.reference_piece_picker import full_scan_on_peer_gone
from tests.probes import pending_requests_to

NUM_PIECES = 4
BLOCKS_PER_PIECE = 3
BLOCK = 16
PEERS = ("p0", "p1", "p2", "p3")
DEPTH = 4


def make_picker(seed, random_first_threshold):
    geometry = PieceGeometry(
        NUM_PIECES * BLOCKS_PER_PIECE * BLOCK,
        piece_size=BLOCKS_PER_PIECE * BLOCK,
        block_size=BLOCK,
    )
    bitfield = Bitfield(NUM_PIECES)
    picker = PiecePicker(
        geometry,
        bitfield,
        RarestFirstSelector(),
        Random(seed),
        random_first_threshold=random_first_threshold,
    )
    return picker, bitfield


def state(picker, bitfield):
    return (
        [
            (
                piece,
                sorted(partial.received),
                [(index, sorted(askers)) for index, askers in partial.requested.items()],
                list(partial.unrequested),
            )
            for piece, partial in picker._active.items()
        ],
        picker._open_partials,
        picker._wanted_mask.tolist(),
        picker._wanted_int,
        picker._endgame,
        bitfield.to_bytes(),
        picker._rng.getstate(),
    )


# (kind, link, argument); requests weigh most, so that runs reach end game.
operations = st.lists(
    st.tuples(
        st.sampled_from(
            ["request"] * 3 + ["deliver"] * 2 + ["release", "have", "reset", "hash_failure"]
        ),
        st.integers(0, len(PEERS) - 1),
        st.integers(0, DEPTH - 1),
    ),
    max_size=80,
)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    random_first_threshold=st.sampled_from([0, 2]),
    offers=st.lists(
        # A seed among the remotes is what lets a run reach end game.
        st.just(list(range(NUM_PIECES)))
        | st.lists(st.integers(0, NUM_PIECES - 1), unique=True, min_size=1),
        min_size=len(PEERS),
        max_size=len(PEERS),
    ),
    script=operations,
)
def test_release_matches_full_scan(seed, random_first_threshold, offers, script):
    production, production_bits = make_picker(seed, random_first_threshold)
    oracle, oracle_bits = make_picker(seed, random_first_threshold)
    remotes = {
        key: Bitfield(NUM_PIECES, have=have) for key, have in zip(PEERS, offers)
    }
    for remote in remotes.values():
        production.peer_joined(remote)
        oracle.peer_joined(remote)
    # What each link has in flight, kept the way PeerCore keeps it.
    links = {key: {} for key in PEERS}

    for step, (kind, a, b) in enumerate(script):
        if kind == "request":
            key = PEERS[a]
            for __ in range(b + 1):
                block = production.next_request(remotes[key], key)
                assert oracle.next_request(remotes[key], key) == block
                if block is None:
                    break
                links[key][block] = float(step)
        elif kind in ("deliver", "hash_failure"):
            key = PEERS[a]
            in_flight = list(links[key])
            if not in_flight:
                continue
            block = in_flight[b % len(in_flight)]
            del links[key][block]
            if production_bits.has(block.piece):
                continue  # late duplicate: PeerCore drops it unread
            completed, cancels = production.on_block_received(block, key)
            assert oracle.on_block_received(block, key) == (completed, cancels)
            for other in sorted(cancels):
                links[other].pop(block, None)
            if completed and kind == "hash_failure":
                production.reset_piece(block.piece)
                oracle.reset_piece(block.piece)
        elif kind == "release":
            key = PEERS[a]
            given_order = list(links[key])
            released = production.on_peer_gone(key, links[key])
            expected = full_scan_on_peer_gone(oracle, key)
            assert sorted(released) == sorted(expected)
            assert released == [block for block in given_order if block in expected]
            links[key].clear()
        elif kind == "have":
            key, piece = PEERS[a], b % NUM_PIECES
            if remotes[key].set(piece):
                production.remote_has(piece)
                oracle.remote_has(piece)
        else:
            # A reset of a started piece leaves its requests on the links
            # as stale entries the next release must skip.
            piece = (a + b) % NUM_PIECES
            if piece in production._active or production_bits.has(piece):
                production.reset_piece(piece)
                oracle.reset_piece(piece)
        assert state(production, production_bits) == state(oracle, oracle_bits)


def test_stale_entry_of_a_restarted_piece_is_skipped():
    """A link still lists a block of a piece that was reset and started
    again elsewhere: the release leaves the new asker's request alone."""
    picker, __ = make_picker(1, random_first_threshold=0)
    only = Bitfield(NUM_PIECES, have=[2])
    picker.peer_joined(only)
    stale = picker.next_request(only, "p0")
    picker.reset_piece(stale.piece)
    again = picker.next_request(only, "p1")
    assert again == stale
    assert picker.on_peer_gone("p0", {stale: 0.0}) == []
    assert pending_requests_to(picker, "p1") == [stale]
    assert picker.on_peer_gone("p1", {stale: 0.0}) == [stale]
    assert picker.active_pieces == []
