"""Tests for the tracker service tier: sharded store, samplers, load
shedding and per-request RNG derivation.

The live-server conformance tests (``tracker`` marker) live in
``test_tracker_server.py``; everything here is synchronous and runs in
the tier-1 suite.
"""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule
from random import Random

from repro.tracker.sampling import (
    SAMPLER_REGISTRY,
    RarityAwareSampler,
    SeedBiasedSampler,
    UniformSampler,
    make_sampler,
)
from repro.tracker.service import (
    AnnounceBudget,
    AnnounceRequest,
    TrackerOverloaded,
    TrackerService,
)
from repro.tracker.state import MAX_HAVE, ShardedSwarmStore, SwarmState, shard_of
from repro.tracker.wire import pack_peers, unpack_peers
from repro.workloads import RunOptions

HASH_A = hashlib.sha1(b"torrent-a").digest()
HASH_B = hashlib.sha1(b"torrent-b").digest()


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def make_service(**kwargs):
    clock = _Clock()
    return TrackerService(clock, seed=11, **kwargs), clock


def populate(service, infohash=HASH_A, count=40, seeds=10):
    for index in range(count):
        service.announce(
            AnnounceRequest(
                infohash=infohash,
                address="10.0.0.%d:6881" % (index + 1),
                event="started",
                num_want=0,
                is_seed=index < seeds,
                have_count=100 if index < seeds else index,
            )
        )


class TestShardedStore:
    def test_shard_placement_is_stable(self):
        # CRC-32, not the salted builtin hash: placement must be a pure
        # function of the infohash across processes.
        assert shard_of(HASH_A, 8) == shard_of(HASH_A, 8)
        store = ShardedSwarmStore(8)
        assert store.shard_index(HASH_A) == shard_of(HASH_A, 8)

    def test_get_or_create_reuses_state(self):
        store = ShardedSwarmStore(4)
        state = store.get_or_create(HASH_A)
        assert store.get_or_create(HASH_A) is state
        assert store.get(HASH_B) is None
        assert store.total_swarms == 1

    def test_rebalance_preserves_swarm_objects(self):
        store = ShardedSwarmStore(1)
        hashes = [hashlib.sha1(b"t%d" % i).digest() for i in range(32)]
        states = {h: store.get_or_create(h) for h in hashes}
        for h in hashes:
            states[h].update("1.2.3.4:1", "started", False, 0.0)
        moved = store.rebalance(8)
        # With one source shard, every swarm not mapping to shard 0
        # under the new count moves; the objects themselves are reused.
        assert moved == sum(1 for h in hashes if shard_of(h, 8) != 0)
        assert store.num_shards == 8
        for h in hashes:
            assert store.get(h) is states[h]
        assert store.total_peers == 32

    def test_rebalance_rejects_bad_count(self):
        with pytest.raises(ValueError):
            ShardedSwarmStore(4).rebalance(0)

    def test_stats_account_all_shards(self):
        store = ShardedSwarmStore(4)
        store.get_or_create(HASH_A).update("a:1", "started", False, 0.0)
        store.get_or_create(HASH_B).update("b:1", "started", True, 0.0)
        stats = store.stats()
        assert len(stats) == 4
        assert sum(s.swarms for s in stats) == 2
        assert sum(s.peers for s in stats) == 2
        assert sum(s.announces for s in stats) == 2


class TestSwarmStateRoles:
    def test_seed_transition_moves_role_index(self):
        state = SwarmState()
        state.update("x:1", "started", False, 0.0)
        assert state.scrape() == (0, 1)
        state.update("x:1", "completed", True, 1.0)
        assert state.scrape() == (1, 0)
        assert state.completed_count == 1

    def test_stopped_detaches_entry(self):
        state = SwarmState()
        state.update("x:1", "started", True, 0.0)
        state.update("x:1", "stopped", True, 1.0)
        assert len(state) == 0
        assert state.scrape() == (0, 0)
        # A stray stop for an unknown peer is harmless.
        state.update("ghost:1", "stopped", False, 2.0)
        assert len(state) == 0


class SwarmStateMachine(RuleBasedStateMachine):
    """Any order of announces and reaps keeps ``SwarmState``'s redundant
    structures — the ``have`` column, the three dense lists and their
    position maps — a faithful second copy of ``entries``."""

    peers = st.sampled_from(["10.1.0.%d:6881" % index for index in range(12)])
    progress = st.one_of(st.none(), st.integers(0, 50))

    def __init__(self):
        super().__init__()
        self.state = SwarmState(b"machine")
        self.now = 0.0

    def announce(self, address, event, is_seed, have):
        self.now += 1.0
        before = self.state.announce_seq
        self.state.update(address, event, is_seed, self.now, have)
        assert self.state.announce_seq == before + 1

    @rule(address=peers, is_seed=st.booleans(), have=progress)
    def started(self, address, is_seed, have):
        self.announce(address, "started", is_seed, have)

    @rule(address=peers, is_seed=st.booleans(), have=progress)
    def keep_alive(self, address, is_seed, have):
        self.announce(address, "", is_seed, have)

    @rule(address=peers, have=progress)
    def completed(self, address, have):
        self.announce(address, "completed", True, have)

    @rule(address=peers, have=progress)
    def stopped(self, address, have):
        self.announce(address, "stopped", False, have)
        assert address not in self.state.entries

    @rule(max_age=st.integers(0, 12))
    def expire(self, max_age):
        self.now += 1.0
        cutoff = self.now - max_age
        stale = [a for a, e in self.state.entries.items() if e.last_seen < cutoff]
        assert self.state.expire(self.now, float(max_age)) == stale

    @invariant()
    def column_mirrors_entries(self):
        state = self.state
        assert state.have == [
            state.entries[address].have_count or 0 for address in state.all.order
        ]

    @invariant()
    def roles_partition_the_registry(self):
        state = self.state
        assert sorted(state.all.order) == sorted(state.entries)
        assert sorted(state.seeds.order + state.leechers.order) == sorted(state.entries)
        for address, entry in state.entries.items():
            assert (address in state.seeds) == entry.is_seed
            assert (address in state.leechers) == (not entry.is_seed)

    @invariant()
    def position_maps_invert_their_lists(self):
        for index in (self.state.all, self.state.seeds, self.state.leechers):
            assert index._where == {a: i for i, a in enumerate(index.order)}


SwarmStateMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
TestSwarmStateMachine = SwarmStateMachine.TestCase


class TestProgressBounds:
    """``have`` comes from outside; it must be a piece count before it
    reaches the column (and, from there, float arithmetic)."""

    @pytest.mark.parametrize("bad", [-1, -5, MAX_HAVE + 1, 10**400])
    def test_update_rejects_before_touching_anything(self, bad):
        state = SwarmState()
        state.update("x:1", "started", False, 0.0, 7)
        for event in ("started", "", "completed", "stopped"):
            for address in ("x:1", "y:2"):
                with pytest.raises(ValueError):
                    state.update(address, event, False, 1.0, bad)
        assert state.announce_seq == 1
        assert state.addresses() == ["x:1"] and state.have == [7]
        assert state.entries["x:1"].have_count == 7
        assert state.entries["x:1"].last_seen == 0.0

    def test_bounds_are_inclusive(self):
        state = SwarmState()
        state.update("x:1", "started", False, 0.0, 0)
        state.update("y:2", "started", False, 0.0, MAX_HAVE)
        assert state.have == [0, MAX_HAVE]

    def test_service_announce_raises_and_keeps_serving(self):
        service, __ = make_service(sampler=make_sampler("rarity-aware"))
        populate(service)
        with pytest.raises(ValueError):
            service.announce(
                AnnounceRequest(infohash=HASH_A, address="10.0.0.99:6881",
                                event="started", num_want=20, have_count=-1)
            )
        result = service.announce(
            AnnounceRequest(infohash=HASH_A, address="10.0.0.25:6881",
                            event="", num_want=20, have_count=3)
        )
        assert len(result.peers) == 20
        assert (result.seeds, result.leechers) == (10, 30)

    @pytest.mark.parametrize(
        "bias", [float("nan"), float("inf"), float("-inf"), 1e6, -1e6, 50.0, -50.0]
    )
    def test_rarity_aware_rejects_a_bias_without_finite_weights(self, bias):
        with pytest.raises(ValueError):
            RarityAwareSampler(bias)

    def test_extreme_admissible_progress_is_answered(self):
        # The bias check promises a finite, non-zero exponent all the way
        # out to MAX_HAVE: hold it to that.
        for bias in (-40.0, -1.0, 0.0, 1.0, 40.0):
            state = SwarmState()
            for index, have in enumerate((0, 1, MAX_HAVE, MAX_HAVE, None, 99)):
                state.update("p%d:1" % index, "started", False, 0.0, have)
            peers = RarityAwareSampler(bias).sample(state, "p0:1", 3, Random(1))
            assert len(peers) == 3 and "p0:1" not in peers


class TestSamplers:
    @given(
        population=st.integers(min_value=0, max_value=80),
        num_want=st.integers(min_value=0, max_value=60),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=60, deadline=None)
    def test_uniform_sample_properties(self, population, num_want, seed):
        state = SwarmState()
        for index in range(population):
            state.update("p%d" % index, "started", index % 3 == 0, 0.0)
        sample = UniformSampler().sample(state, "p0", num_want, Random(seed))
        assert len(sample) == min(num_want, max(0, population - 1))
        assert "p0" not in sample
        assert len(set(sample)) == len(sample)

    def test_seed_biased_reserves_fraction(self):
        state = SwarmState()
        for index in range(40):
            state.update("p%d" % index, "started", index < 10, 0.0)
        sampler = SeedBiasedSampler(seed_fraction=0.5)
        seeds = {"p%d" % index for index in range(10)}
        sample = sampler.sample(state, "p39", 20, Random(3))
        assert len(sample) == 20
        assert sum(1 for a in sample if a in seeds) == 10

    def test_seed_biased_tops_up_from_leechers(self):
        state = SwarmState()
        for index in range(30):
            state.update("p%d" % index, "started", index < 2, 0.0)
        sample = SeedBiasedSampler(seed_fraction=0.5).sample(
            state, "p29", 20, Random(3)
        )
        # Only 2 seeds exist; the other 18 slots fill from leechers.
        assert len(sample) == 20
        assert len(set(sample)) == 20
        assert "p29" not in sample

    def test_rarity_aware_prefers_provisioned_peers(self):
        state = SwarmState()
        for index in range(100):
            state.update(
                "p%d" % index, "started", False, 0.0,
                have_count=90 if index < 20 else 1,
            )
        sampler = RarityAwareSampler(bias=3.0)
        rich = {"p%d" % index for index in range(20)}
        hits = 0
        for seed in range(30):
            sample = sampler.sample(state, "p99", 10, Random(seed))
            assert "p99" not in sample
            hits += sum(1 for a in sample if a in rich)
        # 20% of the population, heavily weighted: well above the
        # uniform expectation of 2-in-10 per draw.
        assert hits / 30 > 5

    def test_rarity_aware_is_deterministic_per_rng(self):
        state = SwarmState()
        for index in range(50):
            state.update("p%d" % index, "started", False, 0.0, have_count=index)
        sampler = RarityAwareSampler(bias=1.0)
        assert sampler.sample(state, "p0", 10, Random(9)) == sampler.sample(
            state, "p0", 10, Random(9)
        )

    @pytest.mark.parametrize(
        "spec",
        ["uniform", "seed-biased:seed_fraction=0.5", "rarity-aware:bias=1.0"],
    )
    def test_peer_set_under_sampling(self, spec):
        """The paper's Fig. 5 argument (§IV-B) rests on the tracker
        handing each peer a random subset of the swarm, which keeps
        peer sets well connected and diverse: 200 announces into a
        400-peer, 80-seed swarm must each return exactly ``num_want``
        peers, never the requester, and together reach nearly everyone;
        the uniform sampler must also reproduce the seed fraction."""
        population, seeds, num_want, requesters = 400, 80, 50, 200
        service, __ = make_service(num_shards=4, sampler=make_sampler(spec))
        addresses = [
            "10.0.%d.%d:6881" % (index // 250, index % 250 + 1)
            for index in range(population)
        ]
        for index, address in enumerate(addresses):
            service.announce(
                AnnounceRequest(
                    infohash=HASH_A,
                    address=address,
                    event="started",
                    num_want=0,
                    is_seed=index < seeds,
                    have_count=100 if index < seeds else index % 100,
                )
            )
        seed_set = set(addresses[:seeds])
        covered = set()
        seeds_returned = 0
        for address in addresses[:requesters]:
            peers = service.announce(
                AnnounceRequest(
                    infohash=HASH_A,
                    address=address,
                    event="",
                    num_want=num_want,
                    is_seed=address in seed_set,
                )
            ).peers
            assert len(peers) == num_want
            assert address not in peers
            covered.update(peers)
            seeds_returned += sum(1 for peer in peers if peer in seed_set)
        # 200 draws of 50 from 400 leave a peer unseen with probability
        # (1 - 50/400)^200 ~ 3e-12 under uniformity.
        assert len(covered) / population > 0.98
        seed_share = seeds_returned / (requesters * num_want)
        if spec == "uniform":
            # 20% +- 3pp over 10k sampled slots.
            assert abs(seed_share - seeds / population) < 0.03
        if spec.startswith("seed-biased"):
            assert seed_share > seeds / population + 0.1

    def test_spec_round_trip(self):
        for spec in ("uniform", "seed-biased:seed_fraction=0.25",
                     "rarity-aware:bias=-2"):
            assert make_sampler(spec).spec() == spec
        for build in SAMPLER_REGISTRY.values():
            spec = build().spec()
            assert make_sampler(spec).spec() == spec

    def test_spec_validation(self):
        for spec, message in (
            ("nonsense", "unknown sampler 'nonsense' \\(have: "),
            ("uniform:bias=2", "bad parameters for sampler 'uniform:bias=2'"),
            ("rarity-aware:bais=2", "bad parameters for sampler"),
            ("uniform:oops", "malformed sampler parameter"),
            ("rarity-aware:bias=high", "malformed sampler parameter"),
            ("seed-biased:seed_fraction=1.5", "seed_fraction"),
            ("rarity-aware:bias=1e6", "bias"),
        ):
            for build in (make_sampler, lambda spec: RunOptions(tracker_sampler=spec)):
                with pytest.raises(ValueError, match=message):
                    build(spec)
        with pytest.raises(ValueError):
            SeedBiasedSampler(seed_fraction=1.5)


class TestCompactEncoding:
    @given(
        peers=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2**32 - 1),
                st.integers(min_value=1, max_value=65535),
            ),
            max_size=60,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_pack_unpack_round_trip(self, peers):
        dotted = [
            (
                "%d.%d.%d.%d"
                % (ip >> 24 & 255, ip >> 16 & 255, ip >> 8 & 255, ip & 255),
                port,
            )
            for ip, port in peers
        ]
        blob = pack_peers(dotted)
        assert len(blob) == 6 * len(dotted)
        assert unpack_peers(blob) == dotted

    def test_bad_port_rejected(self):
        with pytest.raises(ValueError):
            pack_peers([("1.2.3.4", 0)])
        with pytest.raises(ValueError):
            pack_peers([("1.2.3.4", 65536)])

    def test_ragged_blob_rejected(self):
        with pytest.raises(ValueError):
            unpack_peers(b"\x01\x02\x03")


class TestServiceAnnounce:
    def test_zero_live_peers_announce(self):
        # The very first announce of a swarm: nobody else is registered,
        # the answer must be a well-formed empty peer list, not an error.
        service, __ = make_service()
        result = service.announce(
            AnnounceRequest(infohash=HASH_A, address="10.0.0.1:6881",
                            event="started", num_want=50)
        )
        assert result.peers == []
        assert (result.seeds, result.leechers) == (0, 1)

    def test_announce_after_everyone_left(self):
        service, __ = make_service()
        populate(service, count=3, seeds=0)
        for index in range(3):
            service.announce(
                AnnounceRequest(infohash=HASH_A,
                                address="10.0.0.%d:6881" % (index + 1),
                                event="stopped", num_want=0)
            )
        result = service.announce(
            AnnounceRequest(infohash=HASH_A, address="10.0.9.9:6881",
                            event="started", num_want=50)
        )
        assert result.peers == []
        assert (result.seeds, result.leechers) == (0, 1)

    def test_request_rng_reproducible_across_services(self):
        # Two services with the same seed answer the same announce
        # sequence identically — the wire-frontend determinism contract.
        samples = []
        for __ in range(2):
            service, __clock = make_service(num_shards=4)
            populate(service)
            result = service.announce(
                AnnounceRequest(infohash=HASH_A, address="10.0.0.5:6881",
                                event="", num_want=20)
            )
            samples.append(result.peers)
        assert samples[0] == samples[1]
        assert len(samples[0]) == 20

    def test_request_rng_derivation_is_pinned(self):
        # sha256("seed|infohash|announce_seq") -> first 8 bytes, big
        # endian -> Random(seed): changing any of it changes every wire
        # answer.  Spelled out here independently, plus one literal draw.
        state = SwarmState(HASH_A)
        state.announce_seq = 3
        service, __ = make_service()
        rng = service.request_rng(
            state, AnnounceRequest(infohash=HASH_A, address="a:1")
        )
        digest = hashlib.sha256(b"11|" + HASH_A + b"|3").digest()
        expected = Random(int.from_bytes(digest[:8], "big"))
        assert rng.getstate() == expected.getstate()
        assert rng.getrandbits(64) == 6021674500926199929

    def test_registration_order_not_dict_order(self):
        # Samples are drawn over the dense registration-order list; a
        # same-seed service populated in the same order yields identical
        # samples regardless of how many OTHER swarms exist (which would
        # shift dict layouts).
        service_a, __ = make_service(num_shards=2)
        populate(service_a)
        service_b, __ = make_service(num_shards=2)
        for index in range(7):
            service_b.announce(
                AnnounceRequest(
                    infohash=hashlib.sha1(b"noise-%d" % index).digest(),
                    address="10.9.0.%d:6881" % (index + 1),
                    event="started", num_want=0,
                )
            )
        populate(service_b)
        request = AnnounceRequest(infohash=HASH_A, address="10.0.0.5:6881",
                                  event="", num_want=15)
        assert service_a.announce(request).peers == service_b.announce(request).peers

    def test_rebalance_during_outage_preserves_registry(self):
        # The maintenance story: re-home the shards between announces,
        # then serve again — nothing registered is lost and placement
        # follows the new shard count.
        service, clock = make_service(num_shards=2)
        populate(service, count=20, seeds=5)
        populate(service, infohash=HASH_B, count=10, seeds=2)
        service.store.rebalance(7)
        assert service.store.num_shards == 7
        assert service.store.total_peers == 30
        clock.now = 200.0
        result = service.announce(
            AnnounceRequest(infohash=HASH_A, address="10.0.0.1:6881",
                            event="", num_want=10, is_seed=True)
        )
        assert len(result.peers) == 10
        assert service.scrape(HASH_A) == (5, 15)
        assert service.scrape(HASH_B) == (2, 8)
        assert service.store.shard_index(HASH_A) == shard_of(HASH_A, 7)

    def test_stats_surface(self):
        service, __ = make_service(num_shards=3)
        populate(service, count=5, seeds=1)
        stats = service.stats()
        assert stats["announces"] == 5
        assert stats["swarms"] == 1
        assert stats["peers"] == 5
        assert stats["sampler"] == "uniform"
        assert len(stats["shards"]) == 3


class TestLoadShedding:
    def burst(self, service, clock, count, event=""):
        outcomes = []
        for index in range(count):
            try:
                result = service.announce(
                    AnnounceRequest(
                        infohash=HASH_A,
                        address="10.1.%d.%d:6881" % (index // 250, index % 250 + 1),
                        event=event,
                        num_want=0,
                    )
                )
                outcomes.append(result.shed_factor)
            except TrackerOverloaded as exc:
                outcomes.append(exc)
        return outcomes

    def test_interval_scales_with_overload(self):
        budget = AnnounceBudget(announces_per_second=2.0, window=5.0,
                                reject_factor=1000.0)
        service, clock = make_service(budget=budget, interval=60.0)
        # 30 announces in one window = 6/s = 3x the 2/s budget.
        outcomes = self.burst(service, clock, 30)
        assert outcomes[0] == 1.0  # under budget at first
        assert outcomes[-1] == pytest.approx(3.0)
        assert service.shed_announces > 0
        result = service.announce(
            AnnounceRequest(infohash=HASH_A, address="10.2.0.1:6881", num_want=0)
        )
        assert result.interval == pytest.approx(60.0 * result.shed_factor)

    def test_interval_stretch_is_capped(self):
        budget = AnnounceBudget(announces_per_second=0.2, window=5.0,
                                max_interval_factor=4.0, reject_factor=1000.0)
        service, clock = make_service(budget=budget)
        outcomes = self.burst(service, clock, 200)
        assert outcomes[-1] == 4.0

    def test_reject_past_hard_limit(self):
        budget = AnnounceBudget(announces_per_second=1.0, window=5.0,
                                reject_factor=4.0)
        service, clock = make_service(budget=budget, interval=45.0)
        outcomes = self.burst(service, clock, 60)
        rejected = [o for o in outcomes if isinstance(o, TrackerOverloaded)]
        assert rejected
        assert rejected[0].retry_after == 45.0
        assert service.rejected_announces == len(rejected)

    def test_stopped_announces_never_shed(self):
        # Losing a departure would leak a registry entry forever; the
        # shedding path must always let "stopped" through.
        budget = AnnounceBudget(announces_per_second=1.0, window=5.0,
                                reject_factor=2.0)
        service, clock = make_service(budget=budget)
        self.burst(service, clock, 50)  # drive the rate far past reject
        result = service.announce(
            AnnounceRequest(infohash=HASH_A, address="10.1.0.1:6881",
                            event="stopped", num_want=0)
        )
        assert result.peers == []

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            AnnounceBudget(announces_per_second=0.0)
        with pytest.raises(ValueError):
            AnnounceBudget(announces_per_second=1.0, reject_factor=1.0)
        with pytest.raises(ValueError):
            AnnounceBudget(announces_per_second=1.0, max_interval_factor=0.5)

    @pytest.mark.parametrize("field", [
        "announces_per_second", "window", "max_interval_factor", "reject_factor",
    ])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_budget_rejects_a_non_finite_field(self, field, value):
        # A NaN budget passed every sign test and disabled shedding: no
        # overload comparison against NaN is ever true.
        kwargs = {"announces_per_second": 1.0, field: value}
        with pytest.raises(ValueError):
            AnnounceBudget(**kwargs)


class TestDeadPeerExpiry:
    """Tracker-side reaping of peers whose announces stopped arriving."""

    def announce(self, service, address, event="started", **kwargs):
        return service.announce(
            AnnounceRequest(
                infohash=HASH_A, address=address, event=event, **kwargs
            )
        )

    def test_silent_peer_reaped_after_k_intervals(self):
        service, clock = make_service(interval=100.0, expiry_intervals=3.0)
        self.announce(service, "10.0.0.1:6881")  # then goes silent
        for tick in range(1, 5):
            clock.now = tick * 100.0
            self.announce(service, "10.0.0.2:6881")
            if clock.now <= 300.0:
                # Not yet 3 full intervals of silence: still registered.
                assert "10.0.0.1:6881" in service.store.get(HASH_A).entries
        # t=400: the silent peer missed >3 intervals; the live peer's
        # announce lazily reaped it.
        state = service.store.get(HASH_A)
        assert "10.0.0.1:6881" not in state.entries
        assert "10.0.0.2:6881" in state.entries
        assert service.expired_peers == 1
        assert service.stats()["expired"] == 1

    def test_reaped_peer_never_sampled(self):
        service, clock = make_service(interval=10.0, expiry_intervals=2.0)
        self.announce(service, "10.0.0.1:6881")
        clock.now = 100.0
        result = self.announce(service, "10.0.0.2:6881", num_want=50)
        assert "10.0.0.1:6881" not in result.peers
        assert (result.seeds, result.leechers) == (0, 1)

    def test_expiry_preserves_announce_seq(self):
        # announce_seq feeds the per-request RNG derivation: reaping a
        # peer must never rewind or advance it.
        state = SwarmState(HASH_A)
        state.update("10.0.0.1:6881", event="started", is_seed=False, now=0.0)
        state.update("10.0.0.2:6881", event="started", is_seed=True, now=0.0)
        seq = state.announce_seq
        dead = state.expire(now=1000.0, max_age=10.0)
        assert sorted(dead) == ["10.0.0.1:6881", "10.0.0.2:6881"]
        assert state.announce_seq == seq

    def test_expire_cleans_role_indexes(self):
        state = SwarmState(HASH_A)
        state.update("s:1", event="started", is_seed=True, now=0.0)
        state.update("l:1", event="started", is_seed=False, now=0.0)
        state.update("l:2", event="started", is_seed=False, now=50.0)
        state.expire(now=60.0, max_age=30.0)
        assert state.addresses() == ["l:2"]
        assert state.scrape() == (0, 1)
        assert "s:1" not in state.seeds and "l:1" not in state.leechers

    def test_boundary_age_survives(self):
        # Exactly max_age old is still alive; only *older* peers die.
        state = SwarmState(HASH_A)
        state.update("10.0.0.1:6881", event="started", is_seed=False, now=0.0)
        assert state.expire(now=30.0, max_age=30.0) == []
        assert state.expire(now=30.1, max_age=30.0) == ["10.0.0.1:6881"]

    def test_reap_sweeps_idle_swarms_but_keeps_them(self):
        # Lazy expiry only fires on announce; the full-store reap is
        # what cleans swarms whose traffic stopped entirely — without
        # dropping the SwarmState (its announce_seq must survive).
        service, clock = make_service(interval=10.0, expiry_intervals=2.0)
        self.announce(service, "10.0.0.1:6881")
        service.announce(
            AnnounceRequest(infohash=HASH_B, address="10.0.0.9:6881",
                            event="started")
        )
        seq = service.store.get(HASH_A).announce_seq
        clock.now = 500.0
        assert service.reap() == 2
        assert service.expired_peers == 2
        state = service.store.get(HASH_A)
        assert state is not None and len(state) == 0
        assert state.announce_seq == seq
        assert service.store.total_swarms == 2

    def test_no_expiry_by_default(self):
        service, clock = make_service(interval=10.0)
        self.announce(service, "10.0.0.1:6881")
        clock.now = 1e9
        assert service.reap() == 0
        assert "10.0.0.1:6881" in service.store.get(HASH_A).entries

    def test_expiry_validation(self):
        with pytest.raises(ValueError):
            make_service(expiry_intervals=0.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_expiry_rejects_a_non_finite_value(self, value):
        # ``last_seen < now - nan * interval`` is never true: a NaN
        # expiry once switched reaping off without a word.
        with pytest.raises(ValueError, match="expiry_intervals must be finite"):
            make_service(expiry_intervals=value)


class TestIntervalValidation:
    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), float("-inf"), 0.0, -5.0]
    )
    def test_an_interval_that_cannot_be_honoured_is_refused(self, value):
        # A NaN interval crashed every reply's encoding; a negative one
        # was handed to clients as is.
        with pytest.raises(ValueError, match="interval must be finite and > 0"):
            make_service(interval=value)

    def test_a_sub_second_interval_is_refused(self):
        # Replies carry whole seconds: 0.5 went out as ``interval 0``,
        # which tells every client to re-announce at once.
        with pytest.raises(ValueError, match=r"interval must be in \[1, 2\*\*31 / 1\) s, not 0\.5"):
            make_service(interval=0.5)
        assert make_service(interval=1.0)[0].interval == 1.0

    def test_shedding_may_not_stretch_past_the_udp_field(self):
        budget = AnnounceBudget(announces_per_second=10.0, max_interval_factor=8.0)
        assert make_service(interval=2**28 - 1, budget=budget)
        with pytest.raises(ValueError, match=r"2\*\*31 / 8\) s, not 268435456"):
            make_service(interval=2**28, budget=budget)
