"""Pluggable tracker peer-sampling strategies.

Which peers a tracker hands out shapes the overlay the swarm builds on:
the paper's peer-set results (Fig. 5) assume the mainline tracker's
*uniform random* subset, while streaming-policy work (arXiv 1402.2187)
shows that biased sampling changes swarm behaviour.  This module makes
the choice a first-class, serialisable knob, mirroring the
piece-selector registry in :mod:`repro.core.rarest_first`:

``uniform``
    The BEP-3 default: a uniform random subset of the swarm.  O(num_want)
    per announce: ``num_want + 1`` indices drawn by :func:`_draw_indices`
    over the dense registry, whatever the swarm size.

``seed-biased[:seed_fraction=0.5]``
    Reserve roughly ``seed_fraction`` of the returned set for seeds
    (when available), the "get newcomers unchoked fast" policy some
    deployed trackers implement.  O(num_want) while both roles can fill
    their share; when one runs short (the common case in a
    leecher-heavy swarm) the top-up scans the other role's list, O(n).

``rarity-aware[:bias=1.0]``
    Weight peers by their reported piece count, ``(1 + have) ** bias``:
    positive bias prefers well-provisioned peers (faster first pieces),
    negative bias prefers newcomers (spreads upload demand).  Weighted
    sampling without replacement via Efraimidis–Spirakis keys: one
    ``rng.random()`` and one ``**`` per registered peer *by contract*
    (the draw pattern is what the answers are a function of), so O(n)
    per announce plus one sort of n bare floats, for swarms where the
    bias is worth that cost.

All strategies draw exclusively from the :class:`random.Random` handed
to :meth:`PeerSampler.sample` — the *caller's* seeded stream — so a
peer's sample depends only on its own RNG and the registry content,
never on a shared tracker stream or dict iteration order (the coupling
the in-process tracker historically leaked; see DESIGN.md §15).
"""

from __future__ import annotations

import math
from random import Random
from typing import Callable, Dict, List

from repro.tracker.state import MAX_HAVE, SwarmState


class PeerSampler:
    """Strategy interface: pick ``num_want`` peers for a requester."""

    #: Registry key; set by subclasses.
    name = "abstract"

    def sample(
        self,
        state: SwarmState,
        exclude: str,
        num_want: int,
        rng: Random,
    ) -> List[str]:
        raise NotImplementedError

    def spec(self) -> str:
        """Serialised form that :func:`make_sampler` round-trips."""
        return self.name


def _draw_indices(rng: Random, n: int, k: int) -> List[int]:
    """*k* distinct indices below *n*, in draw order (``0 <= k <= n``).

    The draw of CPython's ``Random.sample(range(n), k)`` (3.9 to 3.12),
    which this replaced, without that routine's per-call overheads: the
    same ``getrandbits`` calls, the same indices, the same end state, in
    both of its regimes — a partial shuffle of ``list(range(n))`` while
    *n* is no larger than the set the other regime would build, and
    beyond that rejection into a set of drawn indices, where neither the
    work nor any container grows with *n*.  A bounded draw is
    ``getrandbits(bound.bit_length())`` repeated until it lands below
    the bound.

    Every pinned sample and every simulator fingerprint is downstream of
    this function, so it — not the stdlib routine, whose algorithm the
    documentation leaves free to change — is the contract;
    ``tests/test_sampler_equivalence.py`` pins literal vectors.
    """
    getrandbits = rng.getrandbits
    picks: List[int] = []
    append = picks.append
    pool_limit = 21
    if k > 5:
        # The stdlib's 21 + 4 ** ceil(log(3k, 4)) — the smallest power
        # of four >= 3k — in integers, out of float rounding's reach.
        pool_limit += 1 << (((3 * k - 1).bit_length() + 1) // 2 * 2)
    if n <= pool_limit:
        pool = list(range(n))
        for bound in range(n, n - k, -1):
            bits = bound.bit_length()
            j = getrandbits(bits)
            while j >= bound:
                j = getrandbits(bits)
            append(pool[j])
            pool[j] = pool[bound - 1]
        return picks
    bits = n.bit_length()
    drawn = set()
    add = drawn.add
    for __ in range(k):
        j = getrandbits(bits)
        while j >= n or j in drawn:
            j = getrandbits(bits)
        add(j)
        append(j)
    return picks


def _sample_dense(
    order: List[str], exclude: str, num_want: int, rng: Random
) -> List[str]:
    """Uniform subset of a dense address list, requester excluded.

    Draws one extra index so the requester, if drawn, can be dropped
    without a second pass; O(num_want) regardless of swarm size.
    """
    n = len(order)
    if n == 0 or num_want <= 0:
        return []
    out = [order[i] for i in _draw_indices(rng, n, min(n, num_want + 1))]
    if exclude in out:  # at most once: addresses in a dense list are unique
        out.remove(exclude)
    elif len(out) > num_want:
        out.pop()
    return out


class UniformSampler(PeerSampler):
    """BEP-3 behaviour: a uniform random subset of the swarm."""

    name = "uniform"

    def sample(self, state, exclude, num_want, rng):
        return _sample_dense(state.all.order, exclude, num_want, rng)


class SeedBiasedSampler(PeerSampler):
    """Reserve a fraction of the returned set for seeds."""

    name = "seed-biased"

    def __init__(self, seed_fraction: float = 0.5):
        if not 0.0 <= seed_fraction <= 1.0:
            raise ValueError("seed_fraction must be in [0, 1]")
        self.seed_fraction = seed_fraction

    def spec(self) -> str:
        return "%s:seed_fraction=%g" % (self.name, self.seed_fraction)

    def sample(self, state, exclude, num_want, rng):
        if num_want <= 0:
            return []
        want_seeds = round(num_want * self.seed_fraction)
        seeds = _sample_dense(state.seeds.order, exclude, want_seeds, rng)
        rest = _sample_dense(
            state.leechers.order, exclude, num_want - len(seeds), rng
        )
        out = seeds + rest
        if len(out) < num_want:
            # One pool ran short: top up from the other, avoiding repeats.
            have = set(out)
            have.add(exclude)
            pool = (
                state.leechers.order
                if len(seeds) < want_seeds
                else state.seeds.order
            )
            extra = [a for a in pool if a not in have]
            missing = num_want - len(out)
            if len(extra) > missing:
                extra = [
                    extra[i] for i in _draw_indices(rng, len(extra), missing)
                ]
            out += extra
        return out[:num_want]


class _KeyExponents(dict):
    """``have -> 1.0 / (1.0 + have) ** bias``, computed on first use.

    Progress reports come from outside, so the memo is bounded: past
    ``LIMIT`` distinct values it starts over rather than grow.
    """

    LIMIT = 1 << 16

    def __init__(self, bias: float):
        super().__init__()
        self.bias = bias

    def __missing__(self, have: int) -> float:
        if len(self) >= self.LIMIT:
            self.clear()
        exponent = self[have] = 1.0 / (1.0 + have) ** self.bias
        return exponent


class RarityAwareSampler(PeerSampler):
    """Weight peers by reported progress, ``(1 + have_count) ** bias``."""

    name = "rarity-aware"

    def __init__(self, bias: float = 1.0):
        # The key exponent must be a finite, non-zero float for every
        # admissible ``have``; it is monotone in ``have``, so the far end
        # decides (at ``have = 0`` it is 1.0 whatever the bias).
        try:
            extreme = 1.0 / (1.0 + MAX_HAVE) ** bias
        except (OverflowError, ZeroDivisionError):
            extreme = 0.0
        if not (math.isfinite(bias) and math.isfinite(extreme) and extreme):
            raise ValueError(
                "bias %r leaves no finite weight at have=%d" % (bias, MAX_HAVE)
            )
        self._exponents = _KeyExponents(bias)

    @property
    def bias(self) -> float:
        return self._exponents.bias

    def spec(self) -> str:
        return "%s:bias=%g" % (self.name, self.bias)

    def sample(self, state, exclude, num_want, rng):
        order = state.all.order
        if num_want <= 0 or not order:
            return []
        # Efraimidis–Spirakis: key = u ** (1/w); the num_want largest
        # keys are a weighted sample without replacement.  One rng draw
        # per registered peer (requester included), in dense-registry
        # order, so the result is a pure function of (registry, rng
        # state).
        random = rng.random
        exponents = self._exponents
        keys = [random() ** exponents[have] for have in state.have]
        me = state.all.position(exclude)
        if me is not None:
            keys[me] = -1.0  # real keys live in [0, 1]
        # The num_want-th largest key, found on bare floats; only the
        # pairs at or above it are built and sorted.  Ties at the cut
        # (a key can underflow to 0.0) fall to the larger address, as
        # they do when whole (key, address) tuples are ranked.
        cut = sorted(keys)[-num_want] if num_want < len(keys) else 0.0
        top = sorted(
            [(key, address) for key, address in zip(keys, order) if key >= cut],
            reverse=True,
        )
        return [address for __, address in top[:num_want]]


#: Registry of constructors, keyed by sampler name.
SAMPLER_REGISTRY: Dict[str, Callable[..., PeerSampler]] = {
    UniformSampler.name: UniformSampler,
    SeedBiasedSampler.name: SeedBiasedSampler,
    RarityAwareSampler.name: RarityAwareSampler,
}


def parse_sampler_spec(spec: str):
    """Split ``"name:key=value,..."`` into (name, kwargs); validates the
    name against the registry and coerces values to float."""
    name, _, args = spec.partition(":")
    name = name.strip()
    if name not in SAMPLER_REGISTRY:
        raise ValueError(
            "unknown sampler %r (have: %s)"
            % (name, ", ".join(sorted(SAMPLER_REGISTRY)))
        )
    kwargs = {}
    if args.strip():
        for part in args.split(","):
            key, sep, value = part.partition("=")
            if not sep:
                raise ValueError("malformed sampler argument %r" % part)
            kwargs[key.strip()] = float(value)
    return name, kwargs


def make_sampler(spec: str) -> PeerSampler:
    """Build a sampler from its spec string, e.g. ``"rarity-aware:bias=2"``.

    >>> make_sampler("uniform").name
    'uniform'
    >>> make_sampler("seed-biased:seed_fraction=0.25").spec()
    'seed-biased:seed_fraction=0.25'
    """
    name, kwargs = parse_sampler_spec(spec)
    return SAMPLER_REGISTRY[name](**kwargs)
