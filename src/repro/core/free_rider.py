"""Free-riding client behaviour.

The paper defines free riders as "peers that never upload" (§I, §IV-B.1)
and evaluates how well the choke algorithm penalises them.  In the
simulator a free rider is a regular client whose *behaviour policy*
refuses every upload: it keeps every remote peer choked regardless of the
configured choker, while downloading wherever it gets unchoked (through
optimistic unchokes and seed random unchokes).
"""

from __future__ import annotations

from random import Random
from typing import Sequence

from repro.core.choke import ChokeCandidate, ChokeDecision, Choker, PeerKey


class FreeRiderChoker(Choker):
    """Never unchokes anyone: the canonical free rider."""

    name = "free-rider"

    def round(
        self,
        interested: Sequence[PeerKey],
        candidates: Sequence[ChokeCandidate],
        now: float,
        rng: Random,
    ) -> ChokeDecision:
        return ChokeDecision(unchoked=[])
