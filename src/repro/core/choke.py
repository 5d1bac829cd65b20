"""The choke algorithm: BitTorrent's peer-selection strategy.

Four interchangeable peer-selection strategies are provided, all driven by
a 10-second round clock (paper §II-C.2):

* :class:`LeecherChoker` — mainline's leecher-state algorithm: every
  round the interested remote peers are ordered by their download rate to
  the local peer and the 3 fastest are unchoked (*regular unchoke*, RU);
  every 3 rounds one additional interested peer is unchoked at random
  (*optimistic unchoke*, OU).
* :class:`SeedChoker` — the **new** seed-state algorithm of mainline
  ≥ 4.0.0: unchoked-and-interested peers are ordered by the time they
  were last unchoked, most recent first; for two consecutive rounds the
  3 most recent stay unchoked and a 4th choked-and-interested peer is
  unchoked at random (*seed random unchoke*, SRU); on the third round the
  4 most recent stay unchoked (*seed kept unchoked*, SKU).
* :class:`OldSeedChoker` — the pre-4.0.0 seed-state algorithm: identical
  to the leecher algorithm but ordered by upload rate *from* the local
  peer, which lets fast (possibly free-riding) downloaders monopolise a
  seed — the unfairness §IV-B.3 attributes to it.
* :class:`TitForTatChoker` — the bit-level tit-for-tat baseline the paper
  argues against (§IV-B.1): a peer refuses to upload to a remote whose
  byte deficit exceeds a threshold, so excess capacity is stranded.

Chokers are pure decision functions, which keeps them unit-testable
without a simulator.  A round reads two inputs: the key of every
interested link, in link order, and a :class:`ChokeCandidate` snapshot
of each interested link that *moved* — unchoked, holding a rate sample,
or with a non-zero lifetime total.  Any other interested key reads as a
choked link with zero rates and zero totals, which is what most of an
80-link peer set is at any round (four unchoke slots, §II-C.2).  Extra
snapshots change nothing, so a caller may snapshot every interested
link.  Rates are non-negative.

Where :class:`LeecherChoker` differs from mainline's ``Choker``
(``_round_robin`` and ``_rechoke``).  All four are open; DESIGN §2
records them, and none is yet adopted or justified:

* *No anti-snubbing.*  Mainline leaves a remote it considers snubbed
  (no block received for a while) out of the preferred set.  Nothing
  here knows about snubbing, so a stalled remote keeps competing on its
  decaying rate.
* *The optimistic peer is drawn, not rotated.*  Every third round
  mainline rotates its connection list to the first choked-and-interested
  peer, then unchokes peers in list order, uninterested ones included,
  until one interested peer beyond the preferred set is unchoked.  Here
  the optimistic peer is ``rng.choice`` among the interested peers
  outside the regular set, and an uninterested peer is never unchoked.
* *No connection order.*  Where a new connection enters mainline's list
  decides when its optimistic turn comes.  Candidates here carry no
  order the choker keeps between rounds.
* *Ties go to the address string.*  Zero-rate or tied regular slots are
  filled by ``str(key)``, where mainline's ``preferred.sort()`` on
  ``(-rate, i)`` breaks ties by connection index.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from heapq import nsmallest
from operator import attrgetter
from random import Random
from typing import Dict, Hashable, List, NamedTuple, Optional, Sequence

PeerKey = Hashable


class ChokeCandidate(NamedTuple):
    """Snapshot of one remote peer as seen at a choke round.

    A tuple type: a round builds one per link of the peer set, and the
    chokers only ever read the fields.
    """

    key: PeerKey
    interested: bool
    """Whether the remote peer is interested in the local peer."""

    choked: bool
    """Whether the local peer currently chokes the remote peer."""

    download_rate: float = 0.0
    """Short-term rate remote → local (bytes/s), from the rate estimator."""

    upload_rate: float = 0.0
    """Short-term rate local → remote (bytes/s)."""

    uploaded_to: float = 0.0
    """Total bytes the local peer uploaded to this remote."""

    downloaded_from: float = 0.0
    """Total bytes the local peer downloaded from this remote."""

    last_unchoked: Optional[float] = None
    """Time the local peer last unchoked this remote, None if never."""


@dataclass
class ChokeDecision:
    """The outcome of one choke round: who ends up unchoked."""

    unchoked: List[PeerKey] = field(default_factory=list)
    optimistic: Optional[PeerKey] = None
    """The OU/SRU slot holder this round, when the algorithm has one."""

    def __contains__(self, key: PeerKey) -> bool:
        return key in self.unchoked


class Choker(ABC):
    """A peer-selection strategy, invoked once per 10-second round."""

    name = "abstract"

    @abstractmethod
    def round(
        self,
        interested: Sequence[PeerKey],
        candidates: Sequence[ChokeCandidate],
        now: float,
        rng: Random,
    ) -> ChokeDecision:
        """Decide the unchoked set for this round from the *interested*
        keys and the *candidates* that moved (module docstring)."""

    def reset(self) -> None:
        """Forget internal state (used on leecher→seed transitions)."""

    def __repr__(self) -> str:
        return "%s()" % type(self).__name__


class LeecherChoker(Choker):
    """Mainline leecher-state choke: 3 RU by download rate + 1 OU."""

    name = "leecher"

    #: The rate regular unchokes rank by (fastest first).
    _rate = attrgetter("download_rate")

    def __init__(self, regular_slots: int = 3, optimistic_rounds: int = 3):
        if regular_slots < 1:
            raise ValueError("need at least one regular slot")
        if optimistic_rounds < 1:
            raise ValueError("optimistic_rounds must be >= 1")
        self._regular_slots = regular_slots
        self._optimistic_rounds = optimistic_rounds
        self._round_index = 0
        self._optimistic: Optional[PeerKey] = None

    def reset(self) -> None:
        self._round_index = 0
        self._optimistic = None

    def round(
        self,
        interested: Sequence[PeerKey],
        candidates: Sequence[ChokeCandidate],
        now: float,
        rng: Random,
    ) -> ChokeDecision:
        # Regular unchoke: the fastest peers by ``_rate``.  Ties are
        # broken by key order for determinism.  Only a snapshot can rate
        # above zero; slots left over go to the zero-rate keys in key
        # order, where the full sort would have put them.
        rate = self._rate
        slots = self._regular_slots
        ranked = sorted(
            (c for c in candidates if rate(c) > 0.0),
            key=lambda c: (-rate(c), _sort_key(c.key)),
        )
        regular = [c.key for c in ranked[:slots]]
        if len(regular) < slots:
            regular += nsmallest(
                slots - len(regular),
                [key for key in interested if key not in regular],
                key=_sort_key,
            )

        rotate = self._round_index % self._optimistic_rounds == 0
        self._round_index += 1
        if self._optimistic not in interested:
            self._optimistic = None  # holder left or lost interest
        if self._optimistic in regular:
            # The optimistic peer earned a regular slot; free the OU slot
            # so another peer gets a chance this rotation.
            self._optimistic = None
            rotate = True
        if rotate or self._optimistic is None:
            pool = [key for key in interested if key not in regular]
            self._optimistic = rng.choice(pool) if pool else None

        unchoked = list(regular)
        if self._optimistic is not None:
            unchoked.append(self._optimistic)
        return ChokeDecision(unchoked=unchoked, optimistic=self._optimistic)


class SeedChoker(Choker):
    """The new (mainline >= 4.0.0) seed-state choke: SKU/SRU round robin.

    Peers are ranked by the time they were last unchoked (most recent
    first), *not* by any transfer rate, so every leecher gets the same
    service time from the seed and a fast free rider cannot monopolise it.
    Each new SRU peer takes an unchoke slot off the oldest SKU peer.
    """

    name = "seed-new"

    def __init__(self, slots: int = 4, random_rounds: Sequence[int] = (0, 1)):
        if slots < 2:
            raise ValueError("seed choke needs at least 2 slots")
        self._slots = slots
        self._random_rounds = frozenset(random_rounds)
        self._round_index = 0
        self._last_unchoked: Dict[PeerKey, float] = {}

    def reset(self) -> None:
        self._round_index = 0
        self._last_unchoked.clear()

    def round(
        self,
        interested: Sequence[PeerKey],
        candidates: Sequence[ChokeCandidate],
        now: float,
        rng: Random,
    ) -> ChokeDecision:
        present = set(interested)
        for key in list(self._last_unchoked):
            if key not in present:
                del self._last_unchoked[key]

        # Order the currently unchoked-and-interested peers by last-unchoke
        # time, most recently unchoked first (step 1 of §II-C.2).  An
        # unchoked link always moved, so every one has a snapshot.
        unchoked_now = [c for c in candidates if not c.choked]
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
            unchoked_keys = {c.key for c in unchoked_now}
            pool = [key for key in interested if key not in unchoked_keys]
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


class OldSeedChoker(LeecherChoker):
    """Pre-4.0.0 seed-state choke: the leecher algorithm, ordered by
    upload rate from the local peer.

    "With this algorithm, peers with a high download rate are favored
    independently of their contribution to the torrent." (§II-C.2)
    """

    name = "seed-old"

    _rate = attrgetter("upload_rate")


class TitForTatChoker(Choker):
    """Bit-level tit-for-tat baseline (§IV-B.1).

    A remote peer is eligible for an unchoke slot only while the local
    peer's byte *deficit* toward it — bytes uploaded minus bytes
    downloaded — stays below ``deficit_threshold``.  Eligible peers are
    ranked by download rate.  The threshold acts as a bootstrap
    allowance; once a free rider has consumed it, it is never served
    again, and a leecher with asymmetric (slow-upload) connectivity can
    never download faster than its own upload rate plus the allowance —
    precisely the behaviours the paper's two fairness criteria reject.
    """

    name = "tit-for-tat"

    def __init__(self, deficit_threshold: float, slots: int = 4):
        if deficit_threshold < 0:
            raise ValueError("deficit_threshold must be non-negative")
        self._threshold = deficit_threshold
        self._slots = slots

    def round(
        self,
        interested: Sequence[PeerKey],
        candidates: Sequence[ChokeCandidate],
        now: float,
        rng: Random,
    ) -> ChokeDecision:
        # A baseline, not a hot path: rebuild the full list, an idle key
        # as an all-zero candidate (deficit 0, so eligible iff 0 < threshold).
        snapshots = {c.key: c for c in candidates}
        eligible = [
            c
            for c in (snapshots.get(k) or ChokeCandidate(k, True, True) for k in interested)
            if (c.uploaded_to - c.downloaded_from) < self._threshold
        ]
        ranked = sorted(
            eligible, key=lambda c: (-c.download_rate, _sort_key(c.key))
        )
        return ChokeDecision(unchoked=[c.key for c in ranked[: self._slots]])


def _sort_key(key: PeerKey):
    """Stable tiebreak for heterogeneous peer keys."""
    return str(key)
