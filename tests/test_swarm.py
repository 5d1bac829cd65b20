"""Tests for swarm orchestration: oracle counts, transient detection,
results bookkeeping, and the fluid tick plumbing."""

import pytest

from repro.protocol.bitfield import Bitfield
from repro.sim.config import KIB, SwarmConfig

from tests.conftest import fast_config, tiny_swarm


class TestGlobalOracle:
    def test_counts_track_joins(self):
        swarm = tiny_swarm(num_pieces=4)
        swarm.add_peer(config=fast_config(), is_seed=True)
        swarm.add_peer(
            config=fast_config(), initial_bitfield=Bitfield(4, have=[0])
        )
        assert list(swarm.global_counts) == [2, 1, 1, 1]

    def test_counts_track_departures(self):
        swarm = tiny_swarm(num_pieces=4)
        swarm.add_peer(config=fast_config(), is_seed=True)
        partial = swarm.add_peer(
            config=fast_config(), initial_bitfield=Bitfield(4, have=[0])
        )
        partial.leave()
        assert list(swarm.global_counts) == [1, 1, 1, 1]

    def test_counts_track_replication(self):
        swarm = tiny_swarm(num_pieces=4)
        swarm.add_peer(config=fast_config(), is_seed=True)
        leecher = swarm.add_peer(config=fast_config())
        swarm.run(300)
        assert leecher.is_seed
        assert list(swarm.global_counts) == [2, 2, 2, 2]

    def test_oracle_matches_actual_bitfields(self):
        swarm = tiny_swarm(num_pieces=8)
        swarm.add_peer(config=fast_config(), is_seed=True)
        for __ in range(4):
            swarm.add_peer(config=fast_config(upload=2 * KIB))
        swarm.run(77)  # mid-download
        expected = [0] * 8
        for peer in swarm.peers.values():
            for piece in peer.bitfield.have_indices():
                expected[piece] += 1
        assert list(swarm.global_counts) == expected


class TestTransientDetection:
    def test_transient_with_single_seed(self):
        swarm = tiny_swarm(num_pieces=4)
        swarm.add_peer(config=fast_config(), is_seed=True)
        swarm.add_peer(config=fast_config())
        assert swarm.is_transient()
        assert swarm.min_global_copies() == 1

    def test_steady_after_replication(self):
        swarm = tiny_swarm(num_pieces=4)
        swarm.add_peer(config=fast_config(), is_seed=True)
        swarm.add_peer(config=fast_config())
        swarm.run(300)
        assert not swarm.is_transient()

    def test_first_full_copy_recorded(self):
        swarm = tiny_swarm(num_pieces=8)
        swarm.add_peer(config=fast_config(upload=2 * KIB), is_seed=True)
        swarm.add_peer(config=fast_config())
        result = swarm.run(400)
        assert result.first_full_copy_at is not None
        # 8 pieces x 4 kiB at 2 kiB/s: the source needs >= 16 s.
        assert result.first_full_copy_at >= 16.0


class TestResults:
    def test_completion_and_join_times(self):
        swarm = tiny_swarm(num_pieces=4)
        swarm.add_peer(config=fast_config(), is_seed=True)
        leecher = swarm.add_peer(config=fast_config())
        result = swarm.run(300)
        download_time = result.download_time(leecher.address)
        assert download_time is not None and download_time > 0
        assert result.mean_download_time() == pytest.approx(download_time)

    def test_download_time_none_for_incomplete(self):
        swarm = tiny_swarm(num_pieces=64)
        swarm.add_peer(config=fast_config(upload=1 * KIB), is_seed=True)
        leecher = swarm.add_peer(config=fast_config())
        result = swarm.run(5)
        assert result.download_time(leecher.address) is None
        assert result.mean_download_time() is None

    def test_bytes_recorded_for_active_and_departed(self):
        swarm = tiny_swarm(num_pieces=4)
        seed = swarm.add_peer(config=fast_config(), is_seed=True)
        leecher = swarm.add_peer(config=fast_config(seeding_time=10.0))
        result = swarm.run(400)
        assert result.bytes_uploaded[seed.address] > 0
        assert result.bytes_downloaded[leecher.address] == pytest.approx(
            swarm.metainfo.geometry.total_size
        )

    def test_duplicate_address_rejected(self):
        swarm = tiny_swarm()
        swarm.add_peer(config=fast_config(), address="10.0.0.1")
        with pytest.raises(ValueError):
            swarm.add_peer(config=fast_config(), address="10.0.0.1")

    def test_address_allocation_unique(self):
        swarm = tiny_swarm()
        addresses = {swarm.make_address() for __ in range(1000)}
        assert len(addresses) == 1000


class TestScheduledArrivals:
    def test_schedule_arrival(self):
        swarm = tiny_swarm()
        swarm.add_peer(config=fast_config(), is_seed=True)
        swarm.schedule_arrival(50.0, config=fast_config())
        swarm.run(49)
        assert len(swarm.peers) == 1
        swarm.run(2)
        assert len(swarm.peers) == 2

    def test_on_tick_callbacks(self):
        swarm = tiny_swarm(swarm_config=SwarmConfig(seed=1, tick_interval=1.0))
        ticks = []
        swarm.on_tick(ticks.append)
        swarm.run(10)
        assert len(ticks) == 10
        assert ticks[0] == 1.0


class TestFlowFastPath:
    """The per-tick allocation cache: ticks whose active flow set did not
    change reuse the previous rates instead of re-running the allocator."""

    def test_allocation_skipped_on_unchanged_flow_set(self):
        calls = []
        config = SwarmConfig(seed=5, tick_interval=1.0)
        swarm = tiny_swarm(num_pieces=32, swarm_config=config)
        original = swarm._allocate

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        swarm._allocate = counting
        swarm.add_peer(config=fast_config(upload=2 * KIB), is_seed=True)
        swarm.add_peer(config=fast_config(upload=2 * KIB))
        ticks = []
        swarm.on_tick(lambda now: ticks.append(now))
        swarm.run(60)  # a long steady transfer: one seed, one leecher
        assert calls  # the allocator did run...
        assert len(calls) < len(ticks)  # ...but far from every tick

    def test_cached_rates_match_per_tick_recompute(self):
        """Forcing a re-allocation every tick (by bumping the membership
        generation) must not change the outcome: the cache is a pure
        function of the flow set and the static capacities."""

        def run_once(force_recompute):
            config = SwarmConfig(seed=11, tick_interval=1.0)
            swarm = tiny_swarm(num_pieces=16, swarm_config=config)
            swarm.add_peer(config=fast_config(), is_seed=True)
            for __ in range(3):
                swarm.add_peer(config=fast_config(upload=2 * KIB))
            if force_recompute:

                def invalidate(now):
                    swarm._members_generation += 1

                swarm.on_tick(invalidate)
            result = swarm.run(200)
            return (
                result.bytes_moved,
                sorted(result.completions.items()),
                {a: p.bitfield.count for a, p in swarm.peers.items()},
            )

        assert run_once(False) == run_once(True)
