"""The full-list chokers, kept as the differential oracle.

These are the ``round`` bodies of ``repro.core.choke`` as they stood
before a round learned to read only the links that moved: each choker
takes one :class:`~repro.core.choke.ChokeCandidate` per link, interested
or not, filters the interested ones itself and sorts all of them by
``(-rate, str(key))``.  Slow and obviously right, which is what
``tests/test_choke_differential.py`` and
``tests/test_choke_round_equivalence.py`` hold the production chokers
to.  Each subclasses its production twin for the constructor, the state
and ``reset``; only ``round`` (and its signature) is the old one.

:func:`split_candidates` turns a full candidate list into the two inputs
a production choker reads, by the snapshot rule :func:`moved`.

Lives in the test tree on purpose: nothing under ``src/`` may import it.
"""

from random import Random
from typing import Hashable, List, Sequence, Tuple

from repro.core.choke import (
    ChokeCandidate,
    ChokeDecision,
    LeecherChoker,
    OldSeedChoker,
    SeedChoker,
    TitForTatChoker,
    _sort_key,
)


def moved(candidate) -> bool:
    """The snapshot rule: unchoked, holding a rate, or with a non-zero
    lifetime total in either direction."""
    return bool(
        not candidate.choked
        or candidate.download_rate
        or candidate.upload_rate
        or candidate.uploaded_to
        or candidate.downloaded_from
    )


def split_candidates(
    candidates: Sequence[ChokeCandidate],
) -> Tuple[List[Hashable], List[ChokeCandidate]]:
    """(interested keys in list order, the interested candidates that
    moved): what a production choker reads instead of the full list."""
    interested = [c for c in candidates if c.interested]
    return [c.key for c in interested], [c for c in interested if moved(c)]


class ReferenceLeecherChoker(LeecherChoker):
    def round(
        self,
        candidates: Sequence[ChokeCandidate],
        now: float,
        rng: Random,
    ) -> ChokeDecision:
        interested = [c for c in candidates if c.interested]
        # Regular unchoke: the fastest peers by ``_rate``.  Ties are
        # broken by key order for determinism.
        rate = self._rate
        ranked = sorted(interested, key=lambda c: (-rate(c), _sort_key(c.key)))
        regular = [c.key for c in ranked[: self._regular_slots]]

        rotate = self._round_index % self._optimistic_rounds == 0
        self._round_index += 1
        present = {c.key for c in interested}
        if self._optimistic not in present:
            self._optimistic = None  # holder left or lost interest
        if self._optimistic in regular:
            # The optimistic peer earned a regular slot; free the OU slot
            # so another peer gets a chance this rotation.
            self._optimistic = None
            rotate = True
        if rotate or self._optimistic is None:
            pool = [c.key for c in interested if c.key not in regular]
            self._optimistic = rng.choice(pool) if pool else None

        unchoked = list(regular)
        if self._optimistic is not None:
            unchoked.append(self._optimistic)
        return ChokeDecision(unchoked=unchoked, optimistic=self._optimistic)


class ReferenceOldSeedChoker(OldSeedChoker):
    round = ReferenceLeecherChoker.round


class ReferenceSeedChoker(SeedChoker):
    def round(
        self,
        candidates: Sequence[ChokeCandidate],
        now: float,
        rng: Random,
    ) -> ChokeDecision:
        interested = [c for c in candidates if c.interested]
        present = {c.key for c in interested}
        for key in list(self._last_unchoked):
            if key not in present:
                del self._last_unchoked[key]

        # Order the currently unchoked-and-interested peers by last-unchoke
        # time, most recently unchoked first (step 1 of §II-C.2).
        unchoked_now = [c for c in interested if not c.choked]
        ranked = sorted(
            unchoked_now,
            key=lambda c: (
                -(self._last_unchoked.get(c.key, c.last_unchoked or 0.0)),
                _sort_key(c.key),
            ),
        )

        phase = self._round_index % (len(self._random_rounds) + 1)
        self._round_index += 1

        decision = ChokeDecision()
        if phase in self._random_rounds or not ranked:
            # Keep the 3 most recently unchoked, add one random
            # choked-and-interested peer (the SRU peer).
            kept = [c.key for c in ranked[: self._slots - 1]]
            pool = [c.key for c in interested if c.choked and c.key not in kept]
            sru = rng.choice(pool) if pool else None
            if sru is not None:
                decision.unchoked = kept + [sru]
                decision.optimistic = sru
                self._last_unchoked[sru] = now
            else:
                # No choked-and-interested peer to promote: keep the full
                # ``slots`` ranked peers rather than idling one upload
                # slot for the round.
                decision.unchoked = [c.key for c in ranked[: self._slots]]
        else:
            # Third period: keep the 4 most recently unchoked.
            decision.unchoked = [c.key for c in ranked[: self._slots]]
        for key in decision.unchoked:
            self._last_unchoked.setdefault(key, now)
        return decision


class ReferenceTitForTatChoker(TitForTatChoker):
    def round(
        self,
        candidates: Sequence[ChokeCandidate],
        now: float,
        rng: Random,
    ) -> ChokeDecision:
        eligible = [
            c
            for c in candidates
            if c.interested and (c.uploaded_to - c.downloaded_from) < self._threshold
        ]
        ranked = sorted(
            eligible, key=lambda c: (-c.download_rate, _sort_key(c.key))
        )
        return ChokeDecision(unchoked=[c.key for c in ranked[: self._slots]])

