"""Piece-selection strategies.

The strategy decides which *new* piece to start downloading, given the
candidate pieces a remote peer offers and the local availability counts
(copies of each piece in the local peer set).  Everything else — strict
priority at the block level, the random-first policy, end game mode — is
strategy-independent machinery implemented by
:class:`repro.core.piece_picker.PiecePicker`.

Strategies provided:

* :class:`RarestFirstSelector` — BitTorrent's local rarest first (§II-C.1):
  pick uniformly at random inside the rarest-pieces set;
* :class:`RandomSelector` — uniform over all candidates (the strawman the
  paper cites rarest first as beating [5], [9]);
* :class:`SequentialSelector` — lowest index first (streaming-style; a
  worst case for diversity);
* :class:`GlobalRarestSelector` — an oracle given *true* global
  replication counts, the "global knowledge" upper bound discussed in §I;
* :class:`ModeSuppressionSelector` — rarest first with probabilistic
  mode suppression (RFwPMS, arXiv 2211.00213): refuses over-replicated
  offers so open-system flash crowds stay stable;
* :class:`SequentialWindowSelector` — rarest first restricted to a
  sliding window ahead of a playback position (streaming/VoD);
* :class:`ProportionalFairSelector` — PFS/EPFS-style probabilistic
  weighting between playback urgency and rarity (arXiv 1402.2187).

Selectors are serializable by name via :func:`make_selector` (e.g.
``"seq-window:window=16"``), which is how scenario configs, campaign
shards and the CLI reach them.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from random import Random
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from numpy import ndarray

    from repro.core.piece_picker import RarityIndex
    from repro.protocol.bitfield import Bitfield


def _choose_with_count(
    candidates: "ndarray", counts: "ndarray", count: int, rng: Random
) -> int:
    """One ``rng.choice`` over the candidates holding exactly ``count``
    copies, in ascending piece order (the tie list ``select`` builds)."""
    return rng.choice(candidates[counts == count].tolist())


class PieceSelector(ABC):
    """Chooses the next piece to start among the startable candidates.

    One policy, three entry points; all three must return the same piece
    (or ``None``) and consume the RNG identically:

    * :meth:`select` — the reference, over a candidate list (the naive
      scan the differential suites compare against, and the ``index``
      backend's path for random first and strategies without an indexed
      one);
    * :meth:`select_indexed` — over the wanted-piece rarity buckets
      (``index`` backend);
    * :meth:`select_arrays` — over the candidate array and its aligned
      copy counts (``matrix`` backend, whenever numpy is importable).
    """

    name = "abstract"

    uses_rarity_index = False
    """True when :meth:`select_indexed` implements an incremental fast
    path over the picker's :class:`~repro.core.piece_picker.RarityIndex`.
    Strategies that leave this False get the candidate-list scan on the
    ``index`` backend."""

    @abstractmethod
    def select(
        self,
        candidates: List[int],
        availability: Sequence[int],
        rng: Random,
    ) -> Optional[int]:
        """Return one element of *candidates*, or ``None`` to decline.

        ``availability[piece]`` is the number of copies of ``piece``
        currently present in the local peer set.  *candidates* is never
        empty and contains only pieces the remote peer offers and the
        local peer misses and has not started.  Returning ``None``
        declines the whole offer — a deliberately non-work-conserving
        choice only :class:`ModeSuppressionSelector` makes; every other
        strategy always picks.
        """

    def select_indexed(
        self,
        wanted: "RarityIndex",
        remote_bitfield: "Bitfield",
        rng: Random,
    ) -> Optional[int]:
        """Indexed fast path over the picker's wanted-piece rarity index.

        ``wanted`` buckets exactly the pieces the local peer misses and
        has not started, keyed by copy count; the selector only has to
        intersect buckets with what the remote offers.  Returns ``None``
        when the remote offers no startable piece.  Implementations must
        be trace-equivalent to :meth:`select` over the same candidates
        (same result, same RNG consumption).
        """
        raise NotImplementedError(
            "%s does not implement the indexed path" % type(self).__name__
        )

    def select_arrays(
        self,
        candidates: "ndarray",
        counts: "ndarray",
        rng: Random,
    ) -> Optional[int]:
        """Array path of the matrix backend.

        ``candidates`` holds the startable pieces in ascending order
        (never empty) and ``counts[i]`` the copies of ``candidates[i]``
        in the local peer set.  Must be trace-equivalent to
        :meth:`select` over the same candidates.  This default runs
        :meth:`select` itself, with the counts exposed as a piece ->
        copies mapping; strategies override it to stay in array
        operations.
        """
        pieces = candidates.tolist()
        return self.select(pieces, dict(zip(pieces, counts.tolist())), rng)

    def __repr__(self) -> str:
        return "%s()" % type(self).__name__


class RarestFirstSelector(PieceSelector):
    """Local rarest first: random choice within the rarest-pieces set.

    "Let m be the number of copies of the rarest piece, then the index of
    each piece with m copies in the peer set is added to the rarest pieces
    set. [...] Each peer selects the next piece to download at random in
    its rarest pieces set." (§II-C.1)
    """

    name = "rarest-first"

    uses_rarity_index = True

    def select(
        self,
        candidates: List[int],
        availability: Sequence[int],
        rng: Random,
    ) -> int:
        rarest_count = min(availability[piece] for piece in candidates)
        rarest_set = [
            piece for piece in candidates if availability[piece] == rarest_count
        ]
        return rng.choice(rarest_set)

    def select_indexed(
        self,
        wanted: "RarityIndex",
        remote_bitfield: "Bitfield",
        rng: Random,
    ) -> Optional[int]:
        """Walk buckets from rarest up; the first non-empty intersection
        with the remote's piece set *is* the rarest eligible set.

        Sorting keeps the set in ascending piece order — the same order
        the naive candidate scan produces — so ``rng.choice`` draws the
        identical piece with the identical RNG consumption.
        """
        remote_have = remote_bitfield.have_set
        for __, bucket in wanted.ascending():
            eligible = bucket & remote_have
            if eligible:
                return rng.choice(sorted(eligible))
        return None

    def select_arrays(
        self,
        candidates: "ndarray",
        counts: "ndarray",
        rng: Random,
    ) -> int:
        return _choose_with_count(candidates, counts, counts.min(), rng)


def _unbound_scarcity() -> Optional[int]:
    return None


class ModeSuppressionSelector(PieceSelector):
    """Rarest first with probabilistic mode suppression (RFwPMS).

    Under open Poisson arrivals with departure on completion, plain
    rarest first can be *unstable*: the swarm collapses into a "one
    club" holding every piece except the seed's rare one, young peers
    work-conservingly download the over-replicated mass and join the
    club, and the origin seed ends up the sole server of the missing
    piece — the missing-piece syndrome (Hajek–Zhu; RFwPMS, arXiv
    2211.00213).  RFwPMS breaks the club by *suppressing the mode*:
    when everything a remote offers is strictly more replicated than
    the swarm's rarest wanted tier (in the one-club state, exactly the
    mode set), the peer declines the offer with probability
    ``suppression`` instead of deepening the mode — a deliberately
    non-work-conserving choice.

    When the remote does offer a rarest-tier piece the selection is
    exactly rarest first (identical RNG draws), and with
    ``suppression=0`` the strategy reduces to
    :class:`RarestFirstSelector` bit for bit.  The rarest piece is
    therefore never suppressed: an offer containing it — in particular
    an offer where it is the only candidate — is always served.

    The rarest *wanted* copy count comes from a scarcity oracle bound
    by the owning picker (:meth:`bind_scarcity` — the same binding
    pattern playback-aware selectors use for their position source).
    Unbound, the oracle reports nothing and the strategy degrades to
    plain rarest first.  Like the playback-aware strategies, instances
    carry per-peer state and must never be shared between peers.
    """

    name = "mode-suppression"

    uses_rarity_index = True

    def __init__(self, suppression: float = 0.9):
        if not 0.0 <= suppression <= 1.0:
            raise ValueError("suppression must be in [0, 1]")
        self.suppression = suppression
        self._scarcity: Callable[[], Optional[int]] = _unbound_scarcity

    def bind_scarcity(self, scarcity: Callable[[], Optional[int]]) -> None:
        """Bind the owning picker's rarest-wanted-copy-count oracle."""
        self._scarcity = scarcity

    def __repr__(self) -> str:
        return "ModeSuppressionSelector(suppression=%g)" % self.suppression

    def _suppresses(self, offered_min: int, rng: Random) -> bool:
        """Decide whether to decline an offer whose rarest candidate has
        ``offered_min`` copies.  Draws exactly one ``rng.random()`` iff
        the offer sits strictly above the rarest wanted tier and
        ``suppression`` is positive; both selection paths route through
        this one decision so their RNG consumption stays identical.
        """
        if self.suppression <= 0.0:
            return False
        rarest_wanted = self._scarcity()
        if rarest_wanted is None or offered_min <= rarest_wanted:
            return False
        return rng.random() < self.suppression

    def select(
        self,
        candidates: List[int],
        availability: Sequence[int],
        rng: Random,
    ) -> Optional[int]:
        offered_min = min(int(availability[piece]) for piece in candidates)
        if self._suppresses(offered_min, rng):
            return None
        ties = [
            piece for piece in candidates if availability[piece] == offered_min
        ]
        return rng.choice(ties)

    def select_indexed(
        self,
        wanted: "RarityIndex",
        remote_bitfield: "Bitfield",
        rng: Random,
    ) -> Optional[int]:
        """First non-empty bucket∩remote is the offer's rarest tier; its
        count feeds the same suppression decision as :meth:`select`,
        then the sorted tie set reproduces the naive scan's ascending
        candidate order for the ``rng.choice`` draw."""
        remote_have = remote_bitfield.have_set
        for count, bucket in wanted.ascending():
            eligible = bucket & remote_have
            if eligible:
                if self._suppresses(count, rng):
                    return None
                return rng.choice(sorted(eligible))
        return None

    def select_arrays(
        self,
        candidates: "ndarray",
        counts: "ndarray",
        rng: Random,
    ) -> Optional[int]:
        offered_min = int(counts.min())
        if self._suppresses(offered_min, rng):
            return None
        return _choose_with_count(candidates, counts, offered_min, rng)


class RandomSelector(PieceSelector):
    """Uniformly random piece selection."""

    name = "random"

    uses_rarity_index = True

    def select(
        self,
        candidates: List[int],
        availability: Sequence[int],
        rng: Random,
    ) -> int:
        return rng.choice(candidates)

    def select_indexed(
        self,
        wanted: "RarityIndex",
        remote_bitfield: "Bitfield",
        rng: Random,
    ) -> Optional[int]:
        """One draw over the union of all buckets the remote offers.

        Sorting reproduces the ascending candidate list the naive scan
        builds, so the single ``rng.choice`` lands on the same piece
        with the same RNG consumption.
        """
        remote_have = remote_bitfield.have_set
        candidates: List[int] = []
        for __, bucket in wanted.ascending():
            candidates.extend(bucket & remote_have)
        if not candidates:
            return None
        candidates.sort()
        return rng.choice(candidates)

    def select_arrays(
        self,
        candidates: "ndarray",
        counts: "ndarray",
        rng: Random,
    ) -> int:
        return rng.choice(candidates.tolist())


class SequentialSelector(PieceSelector):
    """Lowest-index-first selection (in-order / streaming)."""

    name = "sequential"

    uses_rarity_index = True

    def select(
        self,
        candidates: List[int],
        availability: Sequence[int],
        rng: Random,
    ) -> int:
        return min(candidates)

    def select_indexed(
        self,
        wanted: "RarityIndex",
        remote_bitfield: "Bitfield",
        rng: Random,
    ) -> Optional[int]:
        """Minimum over every bucket∩remote; draws no randomness, like
        :meth:`select`."""
        remote_have = remote_bitfield.have_set
        best: Optional[int] = None
        for __, bucket in wanted.ascending():
            eligible = bucket & remote_have
            if eligible:
                lowest = min(eligible)
                if best is None or lowest < best:
                    best = lowest
        return best

    def select_arrays(
        self,
        candidates: "ndarray",
        counts: "ndarray",
        rng: Random,
    ) -> int:
        return int(candidates[0])  # ascending: the first is the lowest


class GlobalRarestSelector(PieceSelector):
    """Oracle strategy using true global piece-replication counts.

    ``global_counts`` is a zero-argument callable returning the live count
    of copies of each piece over the *whole torrent* — the "global
    knowledge" assumption of the analytical studies the paper discusses
    ([21], [25]).  The swarm provides this oracle; real clients cannot.
    """

    name = "global-rarest"

    def __init__(self, global_counts: Callable[[], Sequence[int]]):
        self._global_counts = global_counts

    def select(
        self,
        candidates: List[int],
        availability: Sequence[int],
        rng: Random,
    ) -> int:
        counts = self._global_counts()
        rarest_count = min(counts[piece] for piece in candidates)
        rarest_set = [piece for piece in candidates if counts[piece] == rarest_count]
        return rng.choice(rarest_set)


def _zero_position() -> int:
    return 0


class PlaybackAwareSelector(PieceSelector):
    """Base for strategies that read a playback position.

    The position source is a zero-argument callable returning the index
    of the piece the player needs next.  A peer with playback enabled
    binds its own playback state at construction
    (:meth:`bind_position`); unbound, the position is pinned at 0 — the
    selector then behaves as a pure from-the-start streaming policy.
    """

    def __init__(self) -> None:
        self._position: Callable[[], int] = _zero_position

    def bind_position(self, position: Callable[[], int]) -> None:
        self._position = position


class SequentialWindowSelector(PlaybackAwareSelector):
    """Rarest first inside a sliding window ahead of the playback position.

    Candidates inside ``[position, position + window)`` are preferred —
    among them the rarest is picked (random tie-break), keeping some
    diversity pressure where it matters for the swarm.  When the remote
    offers nothing inside the window, selection degrades to plain
    rarest first over the remaining candidates, so the strategy never
    idles a link the way strict in-order selection does.
    """

    name = "seq-window"

    uses_rarity_index = True

    def __init__(self, window: int = 16):
        super().__init__()
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window

    def __repr__(self) -> str:
        return "SequentialWindowSelector(window=%d)" % self.window

    def select(
        self,
        candidates: List[int],
        availability: Sequence[int],
        rng: Random,
    ) -> int:
        start = self._position()
        end = start + self.window
        pool = [piece for piece in candidates if start <= piece < end] or candidates
        rarest_count = min(int(availability[piece]) for piece in pool)
        ties = [piece for piece in pool if availability[piece] == rarest_count]
        return rng.choice(ties)

    def select_indexed(
        self,
        wanted: "RarityIndex",
        remote_bitfield: "Bitfield",
        rng: Random,
    ) -> Optional[int]:
        """First ascending bucket with an in-window piece wins; otherwise
        the rarest bucket overall.  Equivalent to :meth:`select`: the
        window pool's minimum availability is exactly the first bucket
        (in ascending count order) intersecting the window, and the
        sorted tie set matches the naive scan's ascending candidates.
        """
        remote_have = remote_bitfield.have_set
        start = self._position()
        end = start + self.window
        fallback: Optional[List[int]] = None
        for __, bucket in wanted.ascending():
            eligible = bucket & remote_have
            if not eligible:
                continue
            windowed = sorted(p for p in eligible if start <= p < end)
            if windowed:
                return rng.choice(windowed)
            if fallback is None:
                fallback = sorted(eligible)
        if fallback is None:
            return None
        return rng.choice(fallback)

    def select_arrays(
        self,
        candidates: "ndarray",
        counts: "ndarray",
        rng: Random,
    ) -> int:
        """The window is one contiguous slice of the ascending candidate
        array; an empty slice falls back to every candidate."""
        start = self._position()
        low, high = candidates.searchsorted((start, start + self.window))
        if low < high:
            candidates = candidates[low:high]
            counts = counts[low:high]
        return _choose_with_count(candidates, counts, counts.min(), rng)


class ProportionalFairSelector(PlaybackAwareSelector):
    """PFS/EPFS-style proportional-fair streaming selection.

    Each candidate's probability weight trades playback urgency against
    rarity: ``urgency ** distance / (1 + copies)``, where ``distance``
    is how far the piece lies ahead of the playback position (pieces at
    or behind the position are maximally urgent).  One uniform variate
    picks from the cumulative distribution, so both code paths consume
    exactly one ``rng.random()`` per selection.  This is the
    proportional-fair scheduling family of BitTorrent VoD (arXiv
    1402.2187; BUTorrent's PFS/EPFS choker).
    """

    name = "pfs"

    uses_rarity_index = True

    def __init__(self, urgency: float = 0.95, rarity_bias: float = 1.0):
        super().__init__()
        if not 0.0 < urgency <= 1.0:
            raise ValueError("urgency must be in (0, 1]")
        if rarity_bias < 0.0:
            raise ValueError("rarity_bias must be >= 0")
        self.urgency = urgency
        self.rarity_bias = rarity_bias

    def __repr__(self) -> str:
        return "ProportionalFairSelector(urgency=%g, rarity_bias=%g)" % (
            self.urgency,
            self.rarity_bias,
        )

    def _weight(self, piece: int, copies: int, position: int) -> float:
        distance = piece - position
        if distance < 0:
            distance = 0
        return (self.urgency ** distance) * ((1.0 / (1 + copies)) ** self.rarity_bias)

    def _pick(
        self, candidates: List[int], weights: List[float], rng: Random
    ) -> int:
        total = 0.0
        for weight in weights:
            total += weight
        remaining = rng.random() * total
        for piece, weight in zip(candidates, weights):
            remaining -= weight
            if remaining <= 0.0:
                return piece
        return candidates[-1]

    def select(
        self,
        candidates: List[int],
        availability: Sequence[int],
        rng: Random,
    ) -> int:
        position = self._position()
        weights = [
            self._weight(piece, int(availability[piece]), position)
            for piece in candidates
        ]
        return self._pick(candidates, weights, rng)

    def select_indexed(
        self,
        wanted: "RarityIndex",
        remote_bitfield: "Bitfield",
        rng: Random,
    ) -> Optional[int]:
        """Same cumulative draw over the same ascending candidate list.

        The bucket walk recovers each candidate's copy count without
        touching the flat availability array; sorting by piece restores
        the naive scan's order so the weight accumulation produces
        bit-identical floats and the single variate lands identically.
        """
        remote_have = remote_bitfield.have_set
        pairs: List[tuple] = []
        for count, bucket in wanted.ascending():
            eligible = bucket & remote_have
            if eligible:
                pairs.extend((piece, count) for piece in eligible)
        if not pairs:
            return None
        pairs.sort()
        position = self._position()
        candidates = [piece for piece, __ in pairs]
        weights = [
            self._weight(piece, count, position) for piece, count in pairs
        ]
        return self._pick(candidates, weights, rng)

    def select_arrays(
        self,
        candidates: "ndarray",
        counts: "ndarray",
        rng: Random,
    ) -> int:
        """Weights stay Python floats, accumulated in candidate order:
        an array ``power``/``sum`` may round differently from
        :meth:`select`, and the single variate must land identically."""
        position = self._position()
        pieces = candidates.tolist()
        weights = [
            self._weight(piece, count, position)
            for piece, count in zip(pieces, counts.tolist())
        ]
        return self._pick(pieces, weights, rng)


#: Serializable selector registry: every strategy constructible from a
#: ``name`` plus keyword parameters.  ``GlobalRarestSelector`` is absent
#: on purpose — it needs a live swarm oracle and stays programmatic.
SELECTOR_REGISTRY: Dict[str, Callable[..., PieceSelector]] = {
    RarestFirstSelector.name: RarestFirstSelector,
    ModeSuppressionSelector.name: ModeSuppressionSelector,
    RandomSelector.name: RandomSelector,
    SequentialSelector.name: SequentialSelector,
    SequentialWindowSelector.name: SequentialWindowSelector,
    ProportionalFairSelector.name: ProportionalFairSelector,
}

DEFAULT_SELECTOR_SPEC = RarestFirstSelector.name


def parse_selector_spec(spec: str):
    """Split ``"name"`` / ``"name:key=value,key=value"`` into parts.

    Values parse as int, then float, then bare string.  Raises
    ``ValueError`` for unknown names or malformed parameters — config
    errors should fail at parse time, not mid-campaign.
    """
    name, __, params_text = spec.strip().partition(":")
    name = name.strip()
    if name not in SELECTOR_REGISTRY:
        raise ValueError(
            "unknown selector %r (have: %s)"
            % (name, ", ".join(sorted(SELECTOR_REGISTRY)))
        )
    params = {}
    if params_text:
        for item in params_text.split(","):
            key, sep, value = item.partition("=")
            if not sep or not key.strip():
                raise ValueError("malformed selector parameter %r in %r" % (item, spec))
            value = value.strip()
            try:
                parsed = int(value)
            except ValueError:
                try:
                    parsed = float(value)
                except ValueError:
                    parsed = value
            params[key.strip()] = parsed
    return name, params


def make_selector(spec: Optional[str]) -> Optional[PieceSelector]:
    """Build a fresh selector instance from its serialized spec.

    ``None``/empty means "the default" and returns ``None`` so callers
    keep their historical rarest-first default untouched.  Each call
    returns a *new* instance: playback-aware selectors carry per-peer
    position bindings and must never be shared.
    """
    if spec is None or not spec.strip():
        return None
    name, params = parse_selector_spec(spec)
    try:
        return SELECTOR_REGISTRY[name](**params)
    except TypeError as error:
        raise ValueError("bad parameters for selector %r: %s" % (name, error))
