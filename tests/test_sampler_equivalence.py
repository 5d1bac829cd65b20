"""The production tracker samplers against their stdlib-built references.

``repro.tracker.sampling`` draws its indices from its own ``getrandbits``
kernel and reads the rarity-aware weights off ``SwarmState``'s ``have``
column through a memo; ``tests/reference_samplers.py`` asks
``Random.sample`` and ``heapq.nlargest`` and looks every ``PeerEntry``
up.  The contract is that the two are the same function of (registry,
caller RNG): the same list **and** the same ``rng.getstate()``
afterwards, ``==`` throughout — every simulator fingerprint and every
wire answer is downstream of both.

Three layers:

* the kernel alone against ``Random.sample(range(n), k)``, exhaustively
  for small *n* and at the regime boundaries for large *n*, plus literal
  pinned vectors — the vectors, not the running interpreter's stdlib,
  are the contract should a future ``Random.sample`` ever diverge;
* every sampler against its reference over registries built by
  arbitrary announce scripts, so swap-removes have scrambled the dense
  order and the column before the draw;
* counting guards: what an announce may touch, so the per-peer costs
  cannot grow back behind a ``flat`` benchmark verdict.
"""

import tracemalloc
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from repro.tracker import sampling
from repro.tracker.sampling import _draw_indices
from repro.tracker.service import AnnounceRequest, TrackerService
from repro.tracker.state import SwarmState

from tests import reference_samplers as reference

ADDRESSES = ["10.9.%d.%d:6881" % (i // 250, i % 250 + 1) for i in range(320)]

#: (production, reference): every seed_fraction regime (none, some, all
#: seeds — the top-up branch included) and biases of both signs.
SAMPLER_PAIRS = (
    [(sampling.UniformSampler(), reference.UniformSampler())]
    + [
        (sampling.SeedBiasedSampler(f), reference.SeedBiasedSampler(f))
        for f in (0.0, 0.25, 0.5, 1.0)
    ]
    + [
        (sampling.RarityAwareSampler(b), reference.RarityAwareSampler(b))
        for b in (-1.0, 0.0, 0.5, 1.0, 2.0)
    ]
)


def assert_same_draw(production, oracle, state, exclude, num_want, rng_seed):
    ours, theirs = Random(rng_seed), Random(rng_seed)
    got = production.sample(state, exclude, num_want, ours)
    expected = oracle.sample(state, exclude, num_want, theirs)
    label = (production.spec(), len(state), exclude, num_want, rng_seed)
    assert got == expected, label
    assert ours.getstate() == theirs.getstate(), label


# ---------------------------------------------------------------------------
# the kernel
# ---------------------------------------------------------------------------


class TestDrawIndices:
    """``_draw_indices(rng, n, k)`` is ``rng.sample(range(n), k)``."""

    @staticmethod
    def check(n, k, seed):
        ours, theirs = Random(seed), Random(seed)
        assert _draw_indices(ours, n, k) == theirs.sample(range(n), k), (n, k)
        assert ours.getstate() == theirs.getstate(), (n, k)

    def test_every_small_case(self):
        # Covers both regimes and the switches at n = 21, 85 and 277.
        for n in range(301):
            for k in range(n + 1):
                self.check(n, k, seed=n * 1009 + k)

    @pytest.mark.parametrize("n", [301, 1000, 1044, 1045, 1046, 4117, 4118, 100_000])
    def test_larger_populations(self, n):
        # k = 85 / 86 and 341 / 342 sit either side of the pool limits
        # 277 -> 1045 -> 4117.
        for k in (0, 1, 5, 6, 26, 51, 85, 86, 300, 341, 342, 1000):
            if k <= n:
                for seed in range(3):
                    self.check(n, k, seed)

    #: (seed, n, k) -> (indices, the next 32 bits of the stream).
    PINNED = {
        # Pool regime, k <= 5 and k > 5.
        (7, 21, 5): ([10, 4, 12, 1, 2], 3527346212),
        (2006, 60, 21): (
            [35, 25, 4, 41, 3, 20, 56, 59, 53, 57, 51, 15, 13, 28, 18, 12,
             44, 52, 46, 43, 50],
            907605255,
        ),
        # Rejection regime, one past the k <= 5 pool limit and far out.
        (7, 22, 5): ([10, 4, 12, 20, 1], 311111475),
        (2006, 500, 26): (
            [284, 201, 36, 332, 466, 26, 165, 334, 287, 333, 35, 331, 126,
             109, 226, 149, 97, 98, 484, 398, 224, 102, 414, 349, 108, 198],
            1364066017,
        ),
        (2006, 100_000, 12): (
            [72725, 51550, 9334, 85066, 6795, 42346, 85558, 73633, 85355,
             8998, 84797, 32280],
            918505193,
        ),
    }

    @pytest.mark.parametrize(
        "case", sorted(PINNED), ids=lambda case: "seed%d-n%d-k%d" % case
    )
    def test_pinned_vectors(self, case):
        seed, n, k = case
        rng = Random(seed)
        assert (_draw_indices(rng, n, k), rng.getrandbits(32)) == self.PINNED[case]


# ---------------------------------------------------------------------------
# the samplers, over scrambled registries
# ---------------------------------------------------------------------------

EVENTS = ("started", "", "", "completed", "stopped", "stopped")

operations = st.one_of(
    st.tuples(
        st.just("announce"),
        st.integers(0, len(ADDRESSES) - 1),
        st.sampled_from(EVENTS),
        st.one_of(st.none(), st.integers(0, 120)),
        st.booleans(),
    ),
    st.tuples(st.just("expire"), st.integers(1, 400)),
)

#: Registry sizes before the script runs: empty, tiny, and either side of
#: the kernel's regime switches for num_want <= 4, <= 20 and <= 84.
BASE_SIZES = (0, 1, 2, 7, 19, 20, 21, 22, 23, 40, 83, 84, 85, 86, 87,
              150, 275, 276, 277, 278, 279, 300)


def build_registry(base, filler_seed, script):
    """*base* registrations, then *script*: one second per operation.

    Roles and progress of the base population come from a seeded filler
    (about one in ten reports no progress at all); the script re-announces,
    removes, re-registers and expires on top, so the dense lists and the
    column end up in swap-remove order.
    """
    state = SwarmState(b"equivalence")
    filler = Random(filler_seed)
    now = 0.0
    for index in range(base):
        now += 1.0
        have = None if filler.random() < 0.1 else filler.randrange(121)
        state.update(ADDRESSES[index], "started", filler.random() < 0.3, now, have)
    for operation in script:
        now += 1.0
        if operation[0] == "expire":
            state.expire(now, float(operation[1]))
        else:
            __, index, event, have, is_seed = operation
            state.update(
                ADDRESSES[index], event, is_seed or event == "completed", now, have
            )
    return state


class TestSamplersMatchReference:
    @given(
        base=st.sampled_from(BASE_SIZES),
        filler_seed=st.integers(0, 2**16),
        script=st.lists(operations, max_size=24),
        rng_seed=st.integers(0, 2**32),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_same_list_and_same_rng_state(
        self, base, filler_seed, script, rng_seed, data
    ):
        state = build_registry(base, filler_seed, script)
        n = len(state)
        num_want = data.draw(st.integers(0, n + 5), label="num_want")
        requester = ADDRESSES[
            data.draw(st.integers(0, len(ADDRESSES) - 1), label="requester")
        ]
        for production, oracle in SAMPLER_PAIRS:
            assert_same_draw(production, oracle, state, requester, num_want, rng_seed)

    @pytest.mark.parametrize("num_want", [4, 5, 20, 21, 50, 84])
    def test_regime_switch_grid(self, num_want):
        # min(n, num_want + 1) indices are drawn: the pool limit is 21
        # up to num_want 4, 85 up to 20, 277 up to 84.
        for n in (3, num_want, num_want + 1, 20, 21, 22, 84, 85, 86, 276, 277, 278):
            state = build_registry(n, filler_seed=n, script=())
            for rng_seed in range(4):
                for requester in (ADDRESSES[n // 2], "203.0.113.9:1"):
                    for production, oracle in SAMPLER_PAIRS:
                        assert_same_draw(
                            production, oracle, state, requester, num_want, rng_seed
                        )

    def test_key_ties_fall_to_the_larger_address(self):
        # bias = -1 at have = 120 makes the key u ** 121, which underflows
        # to exactly 0.0 for small u; force it for every peer and the whole
        # answer is decided by the address tie-break.
        class TinyDraws(Random):
            def random(self):
                return super().random() * 1e-300

        state = build_registry(0, 0, ())
        for index in range(40):
            state.update(ADDRESSES[index], "started", False, 1.0, 120)
        production, oracle = sampling.RarityAwareSampler(-1.0), reference.RarityAwareSampler(-1.0)
        got = production.sample(state, ADDRESSES[3], 10, TinyDraws(5))
        assert got == oracle.sample(state, ADDRESSES[3], 10, TinyDraws(5))
        assert got == sorted(set(ADDRESSES[:40]) - {ADDRESSES[3]}, reverse=True)[:10]

    def test_through_the_service_with_lazy_expiry(self):
        # The announce path end to end (update, per-request RNG, lazy
        # reap of silent peers) on each production sampler and its
        # reference: the same peers for every announce of the script.
        script = Random(2006)
        requests = []
        for step in range(400):
            event = script.choice(EVENTS) if step >= 60 else "started"
            requests.append(
                AnnounceRequest(
                    infohash=b"lazy-expiry",
                    address=ADDRESSES[script.randrange(90)],
                    event=event,
                    num_want=0 if event == "stopped" else script.choice((3, 25, 50)),
                    is_seed=event == "completed" or script.random() < 0.2,
                    have_count=script.choice((None, script.randrange(121))),
                )
            )
        for production, oracle in SAMPLER_PAIRS:
            answers = []
            for sampler in (production, oracle):
                clock = iter(range(10_000))
                service = TrackerService(
                    lambda: float(next(clock)), seed=3, sampler=sampler,
                    interval=10.0, expiry_intervals=4.0,
                )
                answers.append([service.announce(r).peers for r in requests])
                assert service.expired_peers > 0
            assert answers[0] == answers[1], production.spec()


# ---------------------------------------------------------------------------
# counting guards
# ---------------------------------------------------------------------------


class _NoLookups(dict):
    """Stands in for ``SwarmState.entries``: any read of an entry fails."""

    def _refuse(self, *args):
        raise AssertionError("the sampler looked a PeerEntry up")

    __getitem__ = get = values = items = __iter__ = _refuse


class _CountingBias(float):
    """A bias that counts how often ``(1.0 + have) ** bias`` is evaluated."""

    evaluations = 0

    def __rpow__(self, base):
        self.evaluations += 1
        return float(base) ** float(self)


class _CountingRandom(Random):
    draws = 0

    def getrandbits(self, k):
        self.draws += 1
        return super().getrandbits(k)


def swarm_of(count, distinct_have):
    state = SwarmState(b"guard")
    for index in range(count):
        state.update(
            "10.%d.%d.%d:6881" % (index >> 16, index >> 8 & 255, index & 255),
            "started", index % 5 == 0, 1.0, index * 7 % distinct_have,
        )
    return state


class TestAnnounceCostGuards:
    def test_rarity_aware_reads_no_peer_entry(self):
        state = swarm_of(500, distinct_have=100)
        sampler = sampling.RarityAwareSampler(1.0)
        expected = sampler.sample(state, "10.0.0.9:6881", 25, Random(1))
        state.entries = _NoLookups(state.entries)
        assert sampler.sample(state, "10.0.0.9:6881", 25, Random(1)) == expected
        assert len(expected) == 25

    def test_rarity_aware_weighs_each_have_value_once(self):
        state = swarm_of(500, distinct_have=100)
        bias = _CountingBias(1.0)
        sampler = sampling.RarityAwareSampler(bias)
        bias.evaluations = 0  # the constructor's range check is not an announce
        for seed in range(3):
            assert len(sampler.sample(state, "10.0.0.9:6881", 25, Random(seed))) == 25
        assert 0 < bias.evaluations <= 100

    def test_uniform_announce_does_not_grow_with_the_swarm(self):
        # DESIGN §15's O(num_want): against 100,000 registered peers an
        # announce for 25 draws fewer than 2 * 26 words and allocates
        # nothing that scales with the registry (a list of its indices
        # alone would be 800 kB).
        state = swarm_of(100_000, distinct_have=100)
        sampler = sampling.UniformSampler()
        rng = _CountingRandom(2006)
        tracemalloc.start()
        try:
            peers = sampler.sample(state, "10.0.0.9:6881", 25, rng)
            __, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(peers) == 25 and len(set(peers)) == 25
        assert 26 <= rng.draws < 2 * 26
        assert peak < 16 * 1024
