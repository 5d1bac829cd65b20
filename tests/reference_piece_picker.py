"""The naive piece picker, kept as the differential oracle.

This is ``repro.core.piece_picker.PiecePicker``'s ``naive`` availability
backend as it stood while ``PeerConfig.use_rarity_index=False`` could
still select it: every new-piece pick builds the candidate list by
scanning the bitfield and hands it to ``PieceSelector.select``, the
rarest pieces set and the wanted scarcity are full scans of the flat
count list, and the end-game trigger walks every missing piece.  No
production input reaches that path any more — a swarm picks through the
availability matrix when numpy is importable and through the rarity
index otherwise — so it lives here, where the equivalence suites hold
both backends to it.

The subclass keeps the index backend's bookkeeping underneath (it is
never read by the four methods below) and never takes a matrix row, as
the naive peers never did.  Install it into a swarm with the ``twins``
fixture's ``"naive-picker"``, or construct it directly.

Lives in the test tree on purpose: nothing under ``src/`` may import it.
"""

from typing import List, Optional, Tuple

from repro.core.piece_picker import PiecePicker
from repro.protocol.bitfield import Bitfield


class NaivePiecePicker(PiecePicker):
    """A :class:`PiecePicker` that scans instead of indexing."""

    def __init__(self, *args, matrix=None, matrix_slot=None, **kwargs):
        super().__init__(*args, **kwargs)

    @property
    def availability_backend(self) -> str:
        return "naive"

    def wanted_scarcity(self) -> Optional[int]:
        best: Optional[int] = None
        for piece in self._bitfield.missing_indices():
            if piece in self._active:
                continue
            count = self._availability[piece]
            if best is None or count < best:
                best = count
        return best

    def rarest_pieces_set(self) -> Tuple[int, List[int]]:
        rarest_count = min(self._availability)
        pieces = [
            piece
            for piece, count in enumerate(self._availability)
            if count == rarest_count
        ]
        return rarest_count, pieces

    def _select_new_piece(self, remote_bitfield: Bitfield) -> Optional[int]:
        random_first = self._bitfield.count < self._random_first_threshold
        selector = self._random_selector if random_first else self._selector
        candidates = [
            piece
            for piece in self._bitfield.pieces_only_in(remote_bitfield)
            if piece not in self._active
        ]
        if not candidates:
            return None
        return selector.select(candidates, self._availability, self._rng)

    def _all_blocks_requested(self) -> bool:
        for piece in self._bitfield.missing_indices():
            partial = self._active.get(piece)
            if partial is None or partial.unrequested:
                return False
        return True
