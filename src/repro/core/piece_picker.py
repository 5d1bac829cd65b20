"""Piece/block scheduling shared by every piece-selection strategy.

The picker owns four responsibilities (paper §II-C.1):

1. **Availability accounting** — the number of copies of each piece in
   the local peer set, updated on every BITFIELD/HAVE message and on
   every peer departure; it also derives the *rarest pieces set* metric
   plotted in the paper's figures 3 and 6.
2. **Random first policy** — while the local peer holds fewer than
   ``random_first_threshold`` pieces (4 by default), new pieces are
   chosen uniformly at random instead of by the configured strategy, so
   a newcomer gets its first pieces (and something to reciprocate with)
   quickly.
3. **Strict priority** — once a block of a piece is requested, remaining
   blocks of that piece are requested with highest priority, minimising
   the number of partially received (hence unserveable) pieces.
4. **End game mode** — once every missing block is either received or
   requested, outstanding blocks are requested from *every* peer that
   offers them, with CANCELs on receipt.

Availability lives in one row of an :class:`AvailabilityMatrix`: the
swarm's shared matrix for a simulated peer, a private one-row matrix
for any other picker (the live :class:`~repro.net.peer.NetPeer`, a
test).  The wanted pieces (missing and not yet started) are a boolean
mask.  A new-piece pick computes the candidate array once (wanted AND
offered, ascending) and gathers the aligned copy counts from the row;
every strategy — random first included — picks from those two arrays
through ``PieceSelector.select``.

Given the same seed this consumes the RNG identically and produces the
same piece-selection trace as a naive O(num_pieces) scan over candidate
lists, which lives in the test tree as the oracle the differential
tests hold it to.
"""

from __future__ import annotations

from random import Random
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as _np

from repro.core.rarest_first import PieceSelector, RandomSelector
from repro.protocol.bitfield import Bitfield
from repro.protocol.metainfo import BlockRef, PieceGeometry

PeerKey = Hashable


class AvailabilityMatrix:
    """Swarm-shared availability counts: one int32 row per online peer.

    Each :class:`PiecePicker` owns one row (its *slot*) and
    reads/writes it through this object — never through a cached view,
    because the backing array is reallocated when the matrix grows.  The
    payoff is at the swarm layer: a completed piece's HAVE flood updates
    every receiver's availability with a single fancy-indexed increment
    (:meth:`increment`) instead of per-receiver python bookkeeping, and
    whole-bitfield accounting on connection open/close is one vector add
    per peer instead of one call per piece.
    """

    def __init__(self, num_pieces: int, capacity: int = 64):
        if capacity < 1:
            capacity = 1
        self.num_pieces = num_pieces
        self.data = _np.zeros((capacity, num_pieces), dtype=_np.int32)
        self._free: List[int] = list(range(capacity - 1, -1, -1))

    def acquire(self) -> int:
        """Claim a zeroed row; the matrix doubles when full."""
        if not self._free:
            old = self.data
            grown = _np.zeros((old.shape[0] * 2, self.num_pieces), old.dtype)
            grown[: old.shape[0]] = old
            self.data = grown
            self._free = list(
                range(grown.shape[0] - 1, old.shape[0] - 1, -1)
            )
        slot = self._free.pop()
        self.data[slot].fill(0)
        return slot

    def release(self, slot: int) -> None:
        self.data[slot].fill(0)
        self._free.append(slot)

    @staticmethod
    def slot_index(slots: List[int]):
        """The index array :meth:`increment` adds on, checked once.

        The slots must be distinct: a fancy-indexed add applies a
        repeated index once, which would silently lose a count."""
        assert len(set(slots)) == len(slots), "duplicate matrix slots"
        return _np.array(slots, dtype=_np.intp)

    def increment(self, slots, piece: int) -> None:
        """``data[slot, piece] += 1`` for every slot at once: *slots* is
        a :meth:`slot_index` (raw slots are checked and converted here)."""
        if not isinstance(slots, _np.ndarray):
            slots = self.slot_index(slots)
        self.data[slots, piece] += 1


class _PartialPiece:
    """Download state of one in-progress piece.

    Invariant: every block index is in exactly one of ``received``,
    ``requested`` or ``unrequested`` (``requested`` holds in-flight blocks
    with the set of peers asked; during end game a received block may have
    straggler duplicates, which are dropped on receipt).
    """

    __slots__ = ("blocks", "received", "requested", "unrequested")

    def __init__(self, blocks: Sequence[BlockRef]):
        self.blocks = blocks
        self.received: Set[int] = set()
        self.requested: Dict[int, Set[PeerKey]] = {}
        # Block indices not yet requested, in DESCENDING index order so
        # the next block (the lowest offset) pops from the end in O(1).
        self.unrequested: List[int] = list(range(len(blocks) - 1, -1, -1))

    def is_complete(self) -> bool:
        return len(self.received) == len(self.blocks)

    def pop_unrequested(self, peer_key: PeerKey) -> Optional[int]:
        """Move the lowest-offset unrequested block to in-flight."""
        if not self.unrequested:
            return None
        index = self.unrequested.pop()
        self.requested[index] = {peer_key}
        return index

    def release(self, index: int) -> None:
        """Return an in-flight block to the unrequested pool (in order)."""
        del self.requested[index]
        # By hand, not ``insort(..., key=neg)``: bisect's ``key`` needs
        # Python 3.10.  Released blocks are the low offsets, near the end.
        unrequested = self.unrequested
        position = len(unrequested)
        while position and unrequested[position - 1] < index:
            position -= 1
        unrequested.insert(position, index)


class PiecePicker:
    """Block scheduler for one downloading peer."""

    def __init__(
        self,
        geometry: PieceGeometry,
        bitfield: Bitfield,
        selector: PieceSelector,
        rng: Random,
        random_first_threshold: int = 4,
        strict_priority: bool = True,
        endgame_enabled: bool = True,
        matrix: Optional[AvailabilityMatrix] = None,
    ):
        self._geometry = geometry
        self._bitfield = bitfield
        self._selector = selector
        self._random_selector = RandomSelector()
        self._rng = rng
        self._random_first_threshold = random_first_threshold
        self._strict_priority = strict_priority
        self._endgame_enabled = endgame_enabled
        self._active: Dict[int, _PartialPiece] = {}
        self._endgame = False
        # Active partials that still hold unrequested blocks; with the
        # active-piece and missing-piece counts this makes the end-game
        # trigger test O(1) instead of O(missing pieces).
        self._open_partials = 0
        # One row of the swarm's shared matrix, or of a private one-row
        # matrix when there is no swarm (a live peer, a test).
        if matrix is None:
            matrix = AvailabilityMatrix(geometry.num_pieces, capacity=1)
        self._matrix = matrix
        self._slot = matrix.acquire()
        # Wanted = missing and not yet started; availability plays no
        # part in maintaining it, so it is a plain boolean mask.  The
        # same mask is mirrored as one big integer in the
        # ``Bitfield.as_int`` bit order (piece 0 at the MSB): testing
        # whether a remote offers *anything* wanted is then a single
        # C-speed AND against ``remote_bitfield.as_int()``, which
        # short-circuits the vectorized selection's common miss case.
        self._wanted_mask = bitfield.as_vector() == 0
        self._wanted_top = len(bitfield.to_bytes()) * 8 - 1
        self._wanted_int = int.from_bytes(
            _np.packbits(self._wanted_mask).tobytes(), "big"
        )
        # Mode-suppression selectors judge offers against the rarest
        # *wanted* copy count: bind this picker's oracle into them.
        bind_scarcity = getattr(selector, "bind_scarcity", None)
        if bind_scarcity is not None:
            bind_scarcity(self.wanted_scarcity)

    # ------------------------------------------------------------------
    # availability accounting
    # ------------------------------------------------------------------

    @property
    def availability(self) -> Sequence[int]:
        """Copies of each piece in the local peer set (read-only view)."""
        return tuple(self._matrix.data[self._slot].tolist())

    @property
    def selector(self) -> PieceSelector:
        return self._selector

    @property
    def matrix_slot(self) -> Optional[int]:
        """This picker's row in its availability matrix, or None."""
        return self._slot

    def detach_matrix(self) -> None:
        """Release the matrix row (peer cleanly departed).  Idempotent; any
        later availability access fails loudly rather than corrupting the
        slot's next owner.  Only call when the counts are zero (a clean
        leave decrements per closed connection).
        """
        if self._matrix is not None and self._slot is not None:
            self._matrix.release(self._slot)
        self._matrix = None
        self._slot = None

    def attach_matrix(self, matrix: "AvailabilityMatrix") -> None:
        """Re-acquire a (zeroed) matrix row after :meth:`detach_matrix`,
        for a peer rejoining the swarm.  No-op while still attached."""
        if self._matrix is not None:
            return
        self._matrix = matrix
        self._slot = matrix.acquire()

    @property
    def in_endgame(self) -> bool:
        return self._endgame

    def peer_joined(self, remote_bitfield: Bitfield) -> None:
        """Account a new peer's full bitfield."""
        if not remote_bitfield.count:
            return  # a newcomer's (or a fresh link's placeholder) empty view
        self._matrix.data[self._slot] += remote_bitfield.as_vector()

    def peer_left(self, remote_bitfield: Bitfield) -> None:
        """Remove a departed peer's contribution to the counts."""
        if not remote_bitfield.count:
            return
        row = self._matrix.data[self._slot]
        row -= remote_bitfield.as_vector()
        if row.min() < 0:
            raise RuntimeError("negative availability after peer left")

    def remote_has(self, piece: int) -> None:
        """Account one HAVE message."""
        self._matrix.data[self._slot, piece] += 1

    def wanted_scarcity(self) -> Optional[int]:
        """Copies of the rarest *wanted* piece (missing and not yet
        started), or ``None`` when nothing is wanted.

        This is the scarcity oracle mode-suppression selectors compare
        offers against.
        """
        counts = self._matrix.data[self._slot][self._wanted_mask]
        if not counts.size:
            return None
        return int(counts.min())

    def rarest_pieces_set(self) -> Tuple[int, List[int]]:
        """(m, pieces-with-m-copies): the paper's rarest pieces set.

        Computed over every piece of the torrent, as in §II-A ("the pieces
        that have the least number of copies in the peer set").
        """
        counts = self._matrix.data[self._slot]
        rarest_count = int(counts.min())
        return rarest_count, _np.nonzero(counts == rarest_count)[0].tolist()

    # ------------------------------------------------------------------
    # request scheduling
    # ------------------------------------------------------------------

    def next_request(
        self, remote_bitfield: Bitfield, peer_key: PeerKey
    ) -> Optional[BlockRef]:
        """Choose the next block to request from the peer ``peer_key``.

        Returns ``None`` when the remote offers nothing requestable.  The
        caller is responsible for pipelining (calling repeatedly until the
        pipeline is full or ``None`` is returned).
        """
        if self._strict_priority and self._open_partials:
            # When no active piece has an unrequested block left the
            # strict-priority scan cannot yield anything; skip it.
            block = self._active_block(remote_bitfield, peer_key)
            if block is not None:
                return block
        # The miss test, once per call: when nothing wanted intersects
        # the remote's pieces no new piece can start and no selector draws
        # any randomness, which is the overwhelmingly common outcome on a
        # busy link.  Valid for every strategy and for random first;
        # without strict priority a failed start still falls back to
        # active pieces.
        if not self._strict_priority or self._wanted_int & remote_bitfield.as_int():
            block = self._start_new_piece(remote_bitfield, peer_key)
            if block is not None:
                return block
        if self._endgame_enabled and self._all_blocks_requested():
            self._endgame = True
            return self._endgame_block(remote_bitfield, peer_key)
        return None

    def _pop_block(self, partial: _PartialPiece, peer_key: PeerKey) -> int:
        """Pop the next unrequested block, maintaining the open count."""
        index = partial.pop_unrequested(peer_key)
        if not partial.unrequested:
            self._open_partials -= 1
        return index

    def _release_block(self, partial: _PartialPiece, index: int) -> None:
        """Return a block to the unrequested pool, maintaining the count."""
        if not partial.unrequested:
            self._open_partials += 1
        partial.release(index)

    def _active_block(
        self, remote_bitfield: Bitfield, peer_key: PeerKey
    ) -> Optional[BlockRef]:
        """First unrequested block of an already-started piece the remote
        has: strict priority's pick, and the fallback without it."""
        remote_bits = remote_bitfield._bits
        for piece, partial in self._active.items():
            if partial.unrequested and remote_bits[piece >> 3] & (
                0x80 >> (piece & 7)
            ):
                block_index = self._pop_block(partial, peer_key)
                return partial.blocks[block_index]
        return None

    def _start_new_piece(
        self, remote_bitfield: Bitfield, peer_key: PeerKey
    ) -> Optional[BlockRef]:
        piece = self._select_new_piece(remote_bitfield)
        if piece is None:
            # Without strict priority, fall back to any startable block of
            # an active piece so progress is still possible.
            if not self._strict_priority:
                return self._active_block(remote_bitfield, peer_key)
            return None
        partial = _PartialPiece(self._geometry.blocks(piece))
        self._active[piece] = partial
        self._open_partials += 1
        self._wanted_mask[piece] = False
        self._wanted_int &= ~(1 << (self._wanted_top - piece))
        block_index = self._pop_block(partial, peer_key)
        return partial.blocks[block_index]

    def _select_new_piece(self, remote_bitfield: Bitfield) -> Optional[int]:
        """Pick the next piece to start, or None when nothing is startable
        (then no strategy is asked and nothing is drawn)."""
        # The candidates of the reference scan, in its ascending order.
        # The mask is bool AND bool: ``as_vector()`` is uint8, and
        # ``nonzero`` on a uint8 mask is several times slower than on a
        # bool one (DESIGN §12, "new-piece pick").
        candidates = (
            self._wanted_mask & remote_bitfield.as_vector().view(bool)
        ).nonzero()[0]
        if not len(candidates):
            return None
        random_first = self._bitfield.count < self._random_first_threshold
        selector = self._random_selector if random_first else self._selector
        # Every strategy picks from the candidates and their copy counts,
        # gathered from the matrix row.
        counts = self._matrix.data[self._slot][candidates]
        return selector.select(candidates, counts, self._rng)

    def _all_blocks_requested(self) -> bool:
        """True when every missing block is either received or in flight."""
        # Active pieces are exactly the started missing pieces; when every
        # missing piece is active and none of them has an unrequested
        # block left, everything is received or in flight.
        return (
            self._open_partials == 0
            and len(self._active) == self._bitfield.missing
        )

    def _endgame_block(
        self, remote_bitfield: Bitfield, peer_key: PeerKey
    ) -> Optional[BlockRef]:
        """An in-flight block the remote offers and has not been asked for."""
        for piece, partial in self._active.items():
            if not remote_bitfield.has(piece):
                continue
            for block_index, askers in partial.requested.items():
                if block_index in partial.received:
                    continue
                if peer_key not in askers:
                    askers.add(peer_key)
                    return partial.blocks[block_index]
        return None

    # ------------------------------------------------------------------
    # completion and failure paths
    # ------------------------------------------------------------------

    def on_block_received(
        self, block: BlockRef, peer_key: PeerKey
    ) -> Tuple[bool, Set[PeerKey]]:
        """Record a received block.

        Returns ``(piece_completed, peers_to_cancel)`` where
        ``peers_to_cancel`` is the set of *other* peers holding a duplicate
        in-flight request for this block (end game mode) that should be
        sent a CANCEL.
        """
        partial = self._active.get(block.piece)
        if partial is None or self._bitfield.has(block.piece):
            return False, set()  # duplicate delivery after completion
        block_index = block.offset // self._geometry.block_size
        if block_index in partial.received:
            return False, set()
        partial.received.add(block_index)
        askers = partial.requested.pop(block_index, set())
        askers.discard(peer_key)
        if partial.is_complete():
            del self._active[block.piece]
            self._bitfield.set(block.piece)
        return partial.is_complete(), askers

    def reset_piece(self, piece: int) -> None:
        """Discard a piece that failed its hash check (re-download it)."""
        partial = self._active.pop(piece, None)
        if partial is not None and partial.unrequested:
            self._open_partials -= 1
        self._bitfield.clear(piece)
        self._wanted_mask[piece] = True
        self._wanted_int |= 1 << (self._wanted_top - piece)
        # The whole piece is unrequested again, so "every missing block is
        # received or in flight" no longer holds; next_request re-enters
        # end game once that is true again.
        self._endgame = False

    def on_peer_gone(self, peer_key: PeerKey, blocks: Iterable[BlockRef]) -> List[BlockRef]:
        """Release the in-flight requests a departed/choking peer held.

        *blocks* are what its link has in flight (``request_times``); an
        entry the picker no longer files under ``peer_key`` (received
        meanwhile, or of a piece since reset) is skipped.  Returns the
        blocks that became unrequested again, in the order given; a piece
        left with no progress and no requests leaves the active set.
        """
        released: List[BlockRef] = []
        active = self._active
        block_size = self._geometry.block_size
        for block in blocks:
            piece = block.piece
            partial = active.get(piece)
            block_index = block.offset // block_size
            askers = partial.requested.get(block_index) if partial else None
            if askers is None:
                continue
            askers.discard(peer_key)
            if askers:
                continue
            self._release_block(partial, block_index)
            released.append(partial.blocks[block_index])
            if not partial.received and not partial.requested:
                # Released blocks are unrequested, so it counted as open.
                del active[piece]
                self._open_partials -= 1
                self._wanted_mask[piece] = True
                self._wanted_int |= 1 << (self._wanted_top - piece)
        if released:
            # Some blocks are unrequested again: end game is over until
            # next_request finds everything in flight once more.
            self._endgame = False
        return released

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def active_pieces(self) -> List[int]:
        """Indices of partially downloaded pieces (insertion order)."""
        return list(self._active)
