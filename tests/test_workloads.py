"""Tests for the Table-I scenarios and capacity distributions."""

from random import Random

import pytest

from repro.sim.config import KIB
from repro.workloads import (
    INTERNET_2005,
    TABLE1,
    CapacityClass,
    CapacityDistribution,
    RunOptions,
    build_experiment,
    scaled_copy,
    scenario_by_id,
    uniform_capacity,
)
from repro.workloads.torrents import MAX_SIMULATED_PEERS


class TestCapacities:
    def test_sample_returns_known_class(self):
        rng = Random(1)
        known = {(c.upload, c.download) for c in INTERNET_2005.classes}
        for __ in range(100):
            assert INTERNET_2005.sample(rng) in known

    def test_weights_respected(self):
        distribution = CapacityDistribution(
            [
                CapacityClass(0.9, 10.0, None, "a"),
                CapacityClass(0.1, 99.0, None, "b"),
            ]
        )
        rng = Random(2)
        samples = [distribution.sample(rng)[0] for __ in range(2000)]
        share_slow = samples.count(10.0) / len(samples)
        assert 0.85 < share_slow < 0.95

    def test_uniform(self):
        distribution = uniform_capacity(42.0, 100.0)
        assert distribution.sample(Random(1)) == (42.0, 100.0)

    def test_mean_upload(self):
        distribution = uniform_capacity(42.0)
        assert distribution.mean_upload() == 42.0

    def test_validation(self):
        with pytest.raises(ValueError):
            CapacityDistribution([])
        with pytest.raises(ValueError):
            CapacityDistribution([CapacityClass(0.0, 1.0, None)])


class TestTable1:
    def test_26_torrents(self):
        assert len(TABLE1) == 26
        assert [scenario.torrent_id for scenario in TABLE1] == list(range(1, 27))

    def test_paper_columns_preserved(self):
        t8 = scenario_by_id(8)
        assert (t8.paper_seeds, t8.paper_leechers) == (1, 861)
        assert t8.paper_size_mb == 3000
        t26 = scenario_by_id(26)
        assert (t26.paper_seeds, t26.paper_leechers) == (12612, 7052)

    def test_ratio_or_transient_flag(self):
        transient_ids = {s.torrent_id for s in TABLE1 if s.transient}
        assert transient_ids == {1, 2, 4, 5, 6, 8, 9}

    def test_population_bounded(self):
        for scenario in TABLE1:
            assert 0 < scenario.seeds + scenario.leechers <= MAX_SIMULATED_PEERS + 2

    def test_ratio_roughly_preserved(self):
        for scenario in TABLE1:
            if scenario.paper_seeds == 0 or scenario.paper_leechers < 10:
                continue
            if scenario.seeds + scenario.leechers < MAX_SIMULATED_PEERS:
                continue  # not scaled
            paper = scenario.paper_ratio
            scaled = scenario.scaled_ratio
            assert scaled == pytest.approx(paper, rel=0.6, abs=0.05)

    def test_pieces_scale_with_size(self):
        small = scenario_by_id(19)  # 6 MB
        large = scenario_by_id(8)  # 3000 MB
        assert small.num_pieces < large.num_pieces

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            scenario_by_id(99)

    def test_scaled_copy(self):
        base = scenario_by_id(7)
        copy = scaled_copy(base, num_pieces=10, duration=100.0)
        assert copy.num_pieces == 10
        assert copy.duration == 100.0
        assert copy.torrent_id == base.torrent_id
        assert base.num_pieces != 10  # original untouched


class TestBuildExperiment:
    @pytest.fixture(scope="class")
    def small_run(self):
        scenario = scaled_copy(
            scenario_by_id(13),
            seeds=2,
            leechers=8,
            num_pieces=16,
            duration=400.0,
            arrival_rate=0.01,
            local_join_time=10.0,
        )
        harness = build_experiment(scenario, seed=5)
        return harness

    def test_local_peer_exists_after_build(self, small_run):
        assert small_run.local_peer is not None
        assert small_run.local_peer.online

    def test_local_uses_paper_defaults(self, small_run):
        config = small_run.local_peer.config
        assert config.upload_capacity == 20 * KIB
        assert config.download_capacity is None
        assert config.max_peer_set == 80
        assert config.unchoke_slots == 4

    def test_run_produces_trace(self, small_run):
        trace = small_run.run()
        assert trace.piece_completions  # the local peer downloaded
        assert len(trace.records) >= 5

    def test_transient_scenario_starts_with_rare_pieces(self):
        scenario = scaled_copy(
            scenario_by_id(8), seeds=1, leechers=6, num_pieces=12,
            duration=60.0, arrival_rate=0.0, local_join_time=5.0,
        )
        harness = build_experiment(scenario, seed=5)
        # Right after the build, pieces only exist at the initial seed.
        assert harness.swarm.min_global_copies() <= 1
        assert harness.swarm.is_transient()

    def test_steady_scenario_starts_replicated(self):
        scenario = scaled_copy(
            scenario_by_id(13), seeds=2, leechers=10, num_pieces=12,
            duration=60.0, arrival_rate=0.0, local_join_time=25.0,
        )
        harness = build_experiment(scenario, seed=5)
        assert harness.swarm.min_global_copies() >= 2

    def test_population_override_selector(self):
        from repro.core.rarest_first import SequentialSelector

        scenario = scaled_copy(
            scenario_by_id(13), seeds=1, leechers=4, num_pieces=8,
            duration=30.0, arrival_rate=0.0, local_join_time=5.0,
        )
        harness = build_experiment(
            scenario, seed=5, options=RunOptions(selector="sequential")
        )
        peers = list(harness.swarm.peers.values())
        assert len(peers) > 1 and harness.local_peer in peers
        assert all(isinstance(peer.selector, SequentialSelector) for peer in peers)
        # One instance per peer: selectors carry per-peer state.
        assert len({id(peer.selector) for peer in peers}) == len(peers)

    def test_free_riders_added(self):
        scenario = scaled_copy(
            scenario_by_id(13), seeds=1, leechers=4, num_pieces=8,
            duration=30.0, arrival_rate=0.0, free_riders=2, local_join_time=5.0,
        )
        harness = build_experiment(scenario, seed=5)
        harness.swarm.run(25.0)  # let every scheduled arrival land
        riders = [
            peer
            for peer in harness.swarm.peers.values()
            if peer.config.upload_capacity == 0.0
        ]
        assert len(riders) == 2

    def test_determinism(self):
        scenario = scaled_copy(
            scenario_by_id(13), seeds=1, leechers=5, num_pieces=8,
            duration=120.0, arrival_rate=0.0, local_join_time=5.0,
        )
        def run():
            harness = build_experiment(scenario, seed=7)
            harness.run()
            return sorted(harness.swarm.result.completions.items())
        assert run() == run()
