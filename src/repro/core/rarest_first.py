"""Piece-selection strategies.

The strategy decides which *new* piece to start downloading, given the
candidate pieces a remote peer offers and their local availability
counts (copies of each piece in the local peer set), as two aligned
numpy arrays: each strategy is one ``select`` over them.  Everything
else — strict
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
from typing import Callable, Dict, List, Optional, Sequence

from numpy import ndarray

from repro.spec_grammar import build_spec, number


def _choose_with_count(
    candidates: ndarray, counts: ndarray, count: int, rng: Random
) -> int:
    """One ``rng.choice`` over the candidates holding exactly ``count``
    copies, in ascending piece order."""
    return rng.choice(candidates[counts == count].tolist())


class PieceSelector(ABC):
    """Chooses the next piece to start among the startable candidates.

    One policy, one entry point, :meth:`select`, over the candidate
    array and its aligned copy counts.  The list-based form of every
    strategy — what a naive O(num_pieces) scan would run — lives in the
    test tree (``tests/reference_selectors.py``); the differential tests
    require the same piece (or ``None``) and the same RNG consumption.
    """

    name = "abstract"

    @abstractmethod
    def select(
        self,
        candidates: ndarray,
        counts: ndarray,
        rng: Random,
    ) -> Optional[int]:
        """Return one element of *candidates*, or ``None`` to decline.

        ``candidates`` holds the startable pieces — offered by the remote
        peer, missing locally and not started — in ascending order, and
        is never empty; ``counts[i]`` is the number of copies of
        ``candidates[i]`` in the local peer set.  The piece returned is a
        Python ``int``.  Returning ``None`` declines the whole offer — a
        deliberately non-work-conserving choice only
        :class:`ModeSuppressionSelector` makes; every other strategy
        always picks.
        """

    # Never called: the benchmark suite's shims resolve it by name; ROADMAP item 1 deletes it.
    def select_indexed(self, *args, **kwargs):
        raise NotImplementedError("select_indexed is gone; call select")

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

    def select(
        self,
        candidates: ndarray,
        counts: ndarray,
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

    def select(
        self,
        candidates: ndarray,
        counts: ndarray,
        rng: Random,
    ) -> Optional[int]:
        """Decline with probability ``suppression`` — one ``rng.random()``
        — exactly when the offer's rarest candidate sits strictly above
        the rarest wanted tier; otherwise pick as rarest first does."""
        offered_min = int(counts.min())
        if self.suppression > 0.0:
            rarest_wanted = self._scarcity()
            if (
                rarest_wanted is not None
                and offered_min > rarest_wanted
                and rng.random() < self.suppression
            ):
                return None
        return _choose_with_count(candidates, counts, offered_min, rng)


class RandomSelector(PieceSelector):
    """Uniformly random piece selection."""

    name = "random"

    def select(
        self,
        candidates: ndarray,
        counts: ndarray,
        rng: Random,
    ) -> int:
        return rng.choice(candidates.tolist())


class SequentialSelector(PieceSelector):
    """Lowest-index-first selection (in-order / streaming)."""

    name = "sequential"

    def select(
        self,
        candidates: ndarray,
        counts: ndarray,
        rng: Random,
    ) -> int:
        return int(candidates[0])  # ascending: the first is the lowest


class GlobalRarestSelector(PieceSelector):
    """Oracle strategy using true global piece-replication counts.

    ``global_counts`` is a zero-argument callable returning the live count
    of copies of each piece over the *whole torrent* — the "global
    knowledge" assumption of the analytical studies the paper discusses
    ([21], [25]).  The swarm provides this oracle; real clients cannot.
    The local copy counts are ignored.
    """

    name = "global-rarest"

    def __init__(self, global_counts: Callable[[], Sequence[int]]):
        self._global_counts = global_counts

    def select(
        self,
        candidates: ndarray,
        counts: ndarray,
        rng: Random,
    ) -> int:
        global_counts = self._global_counts()
        pieces = candidates.tolist()
        copies = [global_counts[piece] for piece in pieces]
        rarest_count = min(copies)
        return rng.choice(
            [piece for piece, count in zip(pieces, copies) if count == rarest_count]
        )


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

    def __init__(self, window: int = 16):
        super().__init__()
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window

    def __repr__(self) -> str:
        return "SequentialWindowSelector(window=%d)" % self.window

    def select(
        self,
        candidates: ndarray,
        counts: ndarray,
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
    picks from the cumulative distribution, so a selection consumes
    exactly one ``rng.random()``.  This is the proportional-fair
    scheduling family of BitTorrent VoD (arXiv 1402.2187; BUTorrent's
    PFS/EPFS choker).
    """

    name = "pfs"

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
        candidates: ndarray,
        counts: ndarray,
        rng: Random,
    ) -> int:
        """Weights stay Python floats, accumulated in candidate order:
        an array ``power``/``sum`` may round differently from a scalar
        loop, and the single variate must land identically."""
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


def make_selector(spec: Optional[str]) -> Optional[PieceSelector]:
    """Build a fresh selector instance from its serialized spec.

    ``None``/empty means "the default" and returns ``None`` so callers
    keep their historical rarest-first default untouched.  Each call
    returns a *new* instance: playback-aware selectors carry per-peer
    position bindings and must never be shared.  Parameter values parse
    as int, then float, then bare string; an unknown name or parameter
    raises ``ValueError``.
    """
    if spec is None or not spec.strip():
        return None
    return build_spec(spec, "selector", SELECTOR_REGISTRY, number)
