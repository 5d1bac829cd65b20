"""The tracker samplers as they stood on the stdlib's ``Random.sample``
and ``heapq.nlargest``, kept as the differential oracle.

These are ``repro.tracker.sampling._sample_dense``, ``UniformSampler``,
``SeedBiasedSampler`` and ``RarityAwareSampler`` verbatim from before
production took its indices from its own ``getrandbits`` kernel and its
weights from ``SwarmState``'s ``have`` column: the uniform draw is
whatever ``rng.sample(range(n), k)`` does on the running interpreter,
and the rarity-aware sampler looks every registered peer's
:class:`~repro.tracker.state.PeerEntry` up, computes two ``**`` and a
division for it and heaps the ``(key, address)`` tuples.  They are slow
and they are obviously right — which is what
``tests/test_sampler_equivalence.py`` needs to hold the production
samplers to (same list, same ``rng.getstate()``).

Lives in the test tree on purpose: nothing under ``src/`` may import it.
"""

import heapq
from random import Random
from typing import List

from repro.tracker.sampling import PeerSampler


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
    take = min(n, num_want + 1)
    picks = rng.sample(range(n), take)
    out = [order[i] for i in picks if order[i] != exclude]
    return out[:num_want]


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
                extra = rng.sample(extra, missing)
            out += extra
        return out[:num_want]


class RarityAwareSampler(PeerSampler):
    """Weight peers by reported progress, ``(1 + have_count) ** bias``."""

    name = "rarity-aware"

    def __init__(self, bias: float = 1.0):
        self.bias = bias

    def spec(self) -> str:
        return "%s:bias=%g" % (self.name, self.bias)

    def sample(self, state, exclude, num_want, rng):
        if num_want <= 0 or not state.all.order:
            return []
        # Efraimidis–Sampelis: key = u ** (1/w); the num_want largest
        # keys are a weighted sample without replacement.  One rng draw
        # per candidate, in dense-registry order, so the result is a
        # pure function of (registry, rng state).
        keyed = []
        entries = state.entries
        for address in state.all.order:
            u = rng.random()
            if address == exclude:
                continue
            have = entries[address].have_count or 0
            weight = (1.0 + have) ** self.bias
            keyed.append((u ** (1.0 / weight), address))
        top = heapq.nlargest(num_want, keyed)
        return [address for __, address in top]
