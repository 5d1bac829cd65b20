"""The naive piece picker, kept as the differential oracle.

Every new-piece pick builds the candidate list by scanning the bitfield
and hands it to the list-based selector of
``tests/reference_selectors.py``; the rarest pieces set and the wanted
scarcity are full scans of a flat count list; the end-game trigger walks
every missing piece; ``next_request`` takes no shortcut past a remote
that offers nothing wanted; and a departed or choking peer's requests
are found by :func:`full_scan_on_peer_gone`, which walks every block in
flight of every partial piece instead of the link's own list.  No production input reaches any of
that — a picker computes its candidates as one array and picks through
its selector's array kernel — so it lives here, where the equivalence
suites hold the production picker to it.

The counts are the one thing it shares with production: they are the
flat list of the picker's matrix row, because a swarm's fused HAVE
flood raises rows, not pickers.  Install it into a swarm with the
``twins`` fixture's ``"naive-picker"``, or construct it directly.

Lives in the test tree on purpose: nothing under ``src/`` may import it.
"""

from typing import Iterable, List, Optional, Tuple

from repro.core.piece_picker import PiecePicker
from repro.protocol.bitfield import Bitfield
from repro.protocol.metainfo import BlockRef

from tests.reference_selectors import reference_select
from tests.probes import missing_indices, pieces_only_in


class NaivePiecePicker(PiecePicker):
    """A :class:`PiecePicker` that scans instead of indexing."""

    def _counts(self) -> List[int]:
        return self._matrix.data[self._slot].tolist()

    def wanted_scarcity(self) -> Optional[int]:
        counts = self._counts()
        best: Optional[int] = None
        for piece in missing_indices(self._bitfield):
            if piece in self._active:
                continue
            if best is None or counts[piece] < best:
                best = counts[piece]
        return best

    def rarest_pieces_set(self) -> Tuple[int, List[int]]:
        counts = self._counts()
        rarest_count = min(counts)
        pieces = [piece for piece, count in enumerate(counts) if count == rarest_count]
        return rarest_count, pieces

    def next_request(self, remote_bitfield: Bitfield, peer_key) -> Optional[BlockRef]:
        block = None
        if self._strict_priority:
            block = self._active_block(remote_bitfield, peer_key)
        if block is None:
            block = self._start_new_piece(remote_bitfield, peer_key)
        if block is None and self._endgame_enabled and self._all_blocks_requested():
            self._endgame = True
            block = self._endgame_block(remote_bitfield, peer_key)
        return block

    def _select_new_piece(self, remote_bitfield: Bitfield) -> Optional[int]:
        random_first = self._bitfield.count < self._random_first_threshold
        selector = self._random_selector if random_first else self._selector
        candidates = [
            piece
            for piece in pieces_only_in(self._bitfield, remote_bitfield)
            if piece not in self._active
        ]
        if not candidates:
            return None
        return reference_select(selector, candidates, self._counts(), self._rng)

    def _all_blocks_requested(self) -> bool:
        for piece in missing_indices(self._bitfield):
            partial = self._active.get(piece)
            if partial is None or partial.unrequested:
                return False
        return True

    def on_peer_gone(self, peer_key, blocks: Iterable[BlockRef]) -> List[BlockRef]:
        return full_scan_on_peer_gone(self, peer_key)


def full_scan_on_peer_gone(picker: PiecePicker, peer_key) -> List[BlockRef]:
    """``PiecePicker.on_peer_gone`` as it stood: release *peer_key*'s
    in-flight requests by scanning every block in flight of every
    partial piece, and drop each piece left with no progress and no
    requests.  Returns the released blocks in piece, then request, order.
    """
    released: List[BlockRef] = []
    emptied: List[int] = []
    for piece, partial in picker._active.items():
        for block_index in list(partial.requested):
            askers = partial.requested[block_index]
            askers.discard(peer_key)
            if not askers:
                picker._release_block(partial, block_index)
                released.append(partial.blocks[block_index])
        if not partial.received and not partial.requested:
            emptied.append(piece)
    for piece in emptied:
        partial = picker._active.pop(piece)
        if partial.unrequested:
            picker._open_partials -= 1
        picker._wanted_mask[piece] = True
        picker._wanted_int |= 1 << (picker._wanted_top - piece)
    if released:
        # Some blocks are unrequested again: end game is over until
        # next_request finds everything in flight once more.
        picker._endgame = False
    return released
