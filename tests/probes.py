"""Read-only queries on production objects that only tests ask.

Each was a method under ``src/`` that nothing but the tests called; it
lives here, as a function of the object it reads, so ``src/`` keeps only
what a run reaches (``tests/test_src_reach.py``).  None changes state,
except that :func:`total_in_window` expires old samples, as a rate read
does.
"""

from typing import Iterator, List, Optional

from repro.protocol.bitfield import Bitfield, _set_bit_indices
from repro.protocol.messages import KeepAlive


# -- repro.protocol ----------------------------------------------------------


def is_empty(bitfield: Bitfield) -> bool:
    return bitfield.count == 0


def missing_indices(bitfield: Bitfield) -> Iterator[int]:
    """Indices of the pieces *bitfield* misses, in increasing order."""
    size = len(bitfield.to_bytes())
    num_pieces = bitfield.num_pieces
    # Every valid position set, spare padding bits zero.
    every_piece = ((1 << num_pieces) - 1) << (size * 8 - num_pieces)
    missing = every_piece & ~bitfield.as_int()
    return _set_bit_indices(missing.to_bytes(size, "big"))


def pieces_only_in(bitfield: Bitfield, other: Bitfield) -> Iterator[int]:
    """Indices *other* holds and *bitfield* misses."""
    if other.num_pieces != bitfield.num_pieces:
        raise ValueError("bitfields cover different torrents")
    only_there = other.as_int() & ~bitfield.as_int()
    yield from _set_bit_indices(
        only_there.to_bytes(len(bitfield.to_bytes()), "big")
    )


def wire_length(message) -> int:
    """Total bytes *message* occupies on the wire: the 4-byte length
    prefix, then the id byte and payload of any message but KEEPALIVE."""
    if isinstance(message, KeepAlive):
        return 4
    return 4 + 1 + len(message.payload())


def blocks_in_piece(geometry, piece: int) -> int:
    return -(-geometry.piece_length(piece) // geometry.block_size)


def total_blocks(geometry) -> int:
    return sum(blocks_in_piece(geometry, piece) for piece in range(geometry.num_pieces))


def buffered_bytes(stream) -> int:
    """Bytes a ``MessageStream`` received that form no complete frame yet."""
    return len(stream._buffer)


# -- repro.core --------------------------------------------------------------


def pending_requests_to(picker, peer_key) -> List:
    """Blocks *picker* currently has requested from ``peer_key``."""
    pending = []
    for partial in picker._active.values():
        for block_index, askers in partial.requested.items():
            if peer_key in askers:
                pending.append(partial.blocks[block_index])
    return pending


def total_in_window(estimator, now: float) -> float:
    """Bytes currently inside a rate estimator's window."""
    estimator._expire(now)
    return max(0.0, estimator._total)


# -- repro.sim ---------------------------------------------------------------


def pending_events(simulator) -> int:
    """Not-yet-cancelled events still queued."""
    return sum(1 for entry in simulator._queue if not entry[2].cancelled)


def queued_upload_bytes(connection) -> float:
    """Bytes still to send to satisfy the remote's pending requests."""
    return connection.transferable_bytes(float("inf"))


def min_global_copies(swarm) -> int:
    """Copies of the least replicated piece across the whole torrent."""
    return min(swarm.global_counts) if swarm.global_counts else 0


def is_transient(swarm) -> bool:
    """True while some piece exists on at most one peer: the paper's
    transient state (rare pieces present only at the initial seed)."""
    return min_global_copies(swarm) <= 1


def utilization(result) -> Optional[float]:
    """Fraction of the swarm's aggregate upload capacity actually used:
    the "capacity of service utilization" of [21] that the paper credits
    BitTorrent with keeping high."""
    if result.capacity_seconds <= 0:
        return None
    return result.bytes_moved / result.capacity_seconds
