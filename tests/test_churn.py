"""Tests for churn processes and their interaction with the swarm."""

from random import Random

import pytest

from repro.sim.churn import (
    flash_crowd,
    open_system_arrivals,
    poisson_arrivals,
)
from repro.sim.config import KIB, PeerConfig, SwarmConfig

from tests.conftest import abort_downloads, fast_config, noise_peers, tiny_swarm


def config_factory(rng: Random) -> PeerConfig:
    return PeerConfig(upload_capacity=2 * KIB)


class TestPoissonArrivals:
    def test_arrival_count_matches_rate(self):
        swarm = tiny_swarm()
        count = poisson_arrivals(
            swarm, rate=0.1, duration=1000.0, config_factory=config_factory,
            rng=Random(4),
        )
        assert 60 <= count <= 140  # ~100 expected

    def test_peers_materialise(self):
        swarm = tiny_swarm()
        swarm.add_peer(config=fast_config(), is_seed=True)
        scheduled = poisson_arrivals(
            swarm, rate=0.05, duration=100.0, config_factory=config_factory,
            rng=Random(4),
        )
        swarm.run(100)
        assert len(swarm.peers) == 1 + scheduled

    def test_kwargs_factory_gives_fresh_objects(self):
        from repro.core.choke import LeecherChoker

        swarm = tiny_swarm()
        made = []

        def kwargs_factory():
            choker = LeecherChoker()
            made.append(choker)
            return {"leecher_choker": choker}

        poisson_arrivals(
            swarm, rate=0.1, duration=100.0, config_factory=config_factory,
            rng=Random(4), kwargs_factory=kwargs_factory,
        )
        swarm.run(100)
        chokers = [peer.leecher_choker for peer in swarm.peers.values()]
        assert len(set(map(id, chokers))) == len(chokers)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            poisson_arrivals(
                tiny_swarm(), rate=0.0, duration=10.0, config_factory=config_factory
            )


class TestFlashCrowd:
    def test_all_arrive_within_spread(self):
        swarm = tiny_swarm()
        flash_crowd(swarm, 20, config_factory, rng=Random(2), spread=30.0)
        swarm.run(30)
        assert len(swarm.peers) == 20

    def test_none_before_start(self):
        swarm = tiny_swarm()
        flash_crowd(swarm, 20, config_factory, rng=Random(2), spread=30.0)
        assert len(swarm.peers) == 0


class TestNoisePeers:
    def test_noise_peers_come_and_go(self):
        swarm = tiny_swarm()
        swarm.add_peer(config=fast_config(), is_seed=True)
        noise_peers(swarm, count=10, duration=100.0, rng=Random(3), stay=5.0)
        swarm.run(200)
        # All noise peers have left again.
        assert len(swarm.peers) == 1
        assert len(swarm.result.departures) == 10

    def test_noise_peers_filtered_from_entropy(self):
        """§IV-A.1: peers staying under 10 s must not bias the entropy
        characterisation."""
        from repro.analysis.entropy import entropy_ratios
        from repro.instrumentation import Instrumentation

        swarm = tiny_swarm(num_pieces=16, seed=9)
        swarm.add_peer(config=fast_config(), is_seed=True)
        for __ in range(3):
            swarm.add_peer(config=fast_config(upload=2 * KIB))
        trace = Instrumentation()
        swarm.add_peer(config=fast_config(upload=2 * KIB), observer=trace)
        trace.start_sampling()
        noise_peers(swarm, count=15, duration=300.0, rng=Random(3), stay=4.0)
        swarm.run(600)
        trace.finalize()
        local_ratios, remote_ratios = entropy_ratios(trace, min_presence=10.0)
        # 4 qualifying remotes at most (seed excluded from leecher ratios).
        assert len(local_ratios) <= 4

    def test_noise_transfers_nothing(self):
        swarm = tiny_swarm(num_pieces=16, seed=9)
        swarm.add_peer(config=fast_config(), is_seed=True)
        noise_peers(swarm, count=5, duration=50.0, rng=Random(3), stay=3.0)
        swarm.run(100)
        for address, uploaded in swarm.result.bytes_uploaded.items():
            if address in swarm.result.departures:
                assert swarm.result.bytes_downloaded[address] < swarm.metainfo.geometry.piece_size


class TestAbortDownloads:
    def test_aborts_thin_the_population(self):
        swarm = tiny_swarm(num_pieces=64)
        swarm.add_peer(config=fast_config(upload=1 * KIB), is_seed=True)
        for __ in range(10):
            swarm.add_peer(config=fast_config(upload=1 * KIB))
        abort_downloads(swarm, probability=0.5, check_interval=50.0, rng=Random(5))
        swarm.run(400)
        assert len(swarm.result.departures) > 0

    def test_zero_probability_aborts_nothing(self):
        swarm = tiny_swarm(num_pieces=8)
        swarm.add_peer(config=fast_config(), is_seed=True)
        for __ in range(3):
            swarm.add_peer(config=fast_config())
        abort_downloads(swarm, probability=0.0, check_interval=20.0, rng=Random(5))
        swarm.run(100)
        departed_leechers = [
            address
            for address in swarm.result.departures
            if address not in swarm.result.completions
        ]
        assert departed_leechers == []

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            abort_downloads(tiny_swarm(), probability=1.5)

    def test_seeds_never_aborted(self):
        swarm = tiny_swarm(num_pieces=8)
        seed = swarm.add_peer(config=fast_config(), is_seed=True)
        abort_downloads(swarm, probability=1.0, check_interval=10.0, rng=Random(5))
        swarm.run(50)
        assert seed.online


class TestMidRunAttachment:
    """Regression: arrival processes whose ``start`` lies before the
    current clock used to trip the engine's schedule-in-the-past guard;
    the delay is now clamped to "now"."""

    def test_poisson_arrivals_attach_to_running_swarm(self):
        swarm = tiny_swarm()
        swarm.add_peer(config=fast_config(), is_seed=True)
        swarm.run(50.0)  # the clock is now well past start=0
        scheduled = poisson_arrivals(
            swarm, rate=0.5, duration=40.0, config_factory=config_factory,
            rng=Random(4),
        )
        assert scheduled > 0
        swarm.run(50.0)
        # Past-due arrivals fire immediately instead of raising.
        assert len(swarm.peers) == 1 + scheduled

    def test_flash_crowd_attaches_to_running_swarm(self):
        swarm = tiny_swarm()
        swarm.add_peer(config=fast_config(), is_seed=True)
        swarm.run(120.0)
        flash_crowd(
            swarm, num_peers=5, config_factory=config_factory,
            rng=Random(9), spread=30.0,
        )
        swarm.run(40.0)
        assert len(swarm.peers) == 6

    def test_direct_negative_delay_clamped(self):
        swarm = tiny_swarm()
        swarm.run(10.0)
        swarm.schedule_arrival(-5.0, config=fast_config())
        swarm.run(0.0)
        assert len(swarm.peers) == 1


class TestOpenSystemArrivals:
    def test_forces_departure_on_completion(self):
        swarm = tiny_swarm()
        swarm.add_peer(config=fast_config(), is_seed=True)
        scheduled = open_system_arrivals(
            swarm, rate=0.1, duration=100.0, rng=Random(4),
            config_factory=lambda rng: PeerConfig(
                upload_capacity=8 * KIB, seeding_time=600.0,
            ),
        )
        assert scheduled > 0
        swarm.run(400.0)
        # Every completed arrival departed immediately despite the
        # factory asking for a long seeding time.
        finished = set(swarm.result.completions) & set(swarm.result.join_times)
        assert finished
        assert finished <= set(swarm.result.departures)

    def test_matches_poisson_schedule(self):
        """Same rng => the arrival *times* are those of poisson_arrivals;
        only the seeding_time override differs."""
        a, b = tiny_swarm(), tiny_swarm()
        open_system_arrivals(
            a, rate=0.2, duration=50.0, config_factory=config_factory,
            rng=Random(11),
        )
        poisson_arrivals(
            b, rate=0.2, duration=50.0, config_factory=config_factory,
            rng=Random(11),
        )
        a.run(60.0)
        b.run(60.0)
        assert sorted(a.result.join_times.values()) == sorted(
            b.result.join_times.values()
        )


class TestArrivalEdgeCases:
    """Simultaneous arrivals and past-due arrivals clamped to "now" are
    where an ordering slip in the event queue would silently reorder or
    drop joins."""

    def make_swarm(self):
        return tiny_swarm(
            swarm_config=SwarmConfig(
                seed=7, verify_piece_hashes=False, snapshot_interval=5.0
            )
        )

    def run_simultaneous(self):
        swarm = self.make_swarm()
        swarm.add_peer(config=fast_config(), is_seed=True)
        # Several arrivals share a timestamp, and 60.0 is exactly where
        # run() stops: their relative order must be preserved and the
        # last one must still join.
        for delay in (0.0, 0.25, 0.25, 0.25, 0.5, 2.0, 2.0, 60.0):
            swarm.schedule_arrival(delay, config=fast_config(upload=2 * KIB))
        swarm.run(60.0)
        return swarm

    def test_every_simultaneous_arrival_joins(self):
        assert len(self.run_simultaneous().peers) == 9

    def test_simultaneous_arrivals_join_in_schedule_order(self):
        """Addresses are handed out at add_peer time, so the roster
        order *is* the event order."""
        swarm = self.run_simultaneous()
        join_times = swarm.result.join_times
        roster = list(swarm.peers)
        assert [join_times[address] for address in roster] == sorted(
            join_times[address] for address in roster
        )

    def test_past_due_arrivals_are_clamped_to_now(self):
        swarm = self.make_swarm()
        swarm.add_peer(config=fast_config(), is_seed=True)
        swarm.run(50.0)
        # A whole past-due process is clamped to "now"...
        scheduled = poisson_arrivals(
            swarm, rate=0.5, duration=20.0, config_factory=config_factory,
            rng=Random(4),
        )
        swarm.schedule_arrival(-5.0, config=fast_config(upload=2 * KIB))
        # ...and again from a clock off the whole-second grid.
        swarm.run(10.1)
        swarm.schedule_arrival(-1.0, config=fast_config(upload=2 * KIB))
        swarm.run(30.0)
        assert len(swarm.peers) == 3 + scheduled
        assert sorted(swarm.result.join_times.values()) == (
            [0.0] + [50.0] * (scheduled + 1) + [60.1]
        )
