"""Tests for swarm orchestration: oracle counts, transient detection,
results bookkeeping, and the fluid tick plumbing."""

import pytest

import repro.sim.bandwidth as bandwidth_module
from repro.sim.bandwidth import INF
from repro.protocol.bitfield import Bitfield
from repro.protocol.metainfo import BlockRef
from repro.sim.config import KIB, SwarmConfig

from tests.conftest import fast_config, tiny_swarm
from tests.probes import is_transient, min_global_copies


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
        assert is_transient(swarm)
        assert min_global_copies(swarm) == 1

    def test_steady_after_replication(self):
        swarm = tiny_swarm(num_pieces=4)
        swarm.add_peer(config=fast_config(), is_seed=True)
        swarm.add_peer(config=fast_config())
        swarm.run(300)
        assert not is_transient(swarm)

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

    def test_departed_peer_is_uncapped(self):
        """A departure puts the peer's nodes back to ``inf`` and ends the
        flow it capped; a rejoin restores its caps."""
        swarm = tiny_swarm(num_pieces=8, piece_size=16 * KIB, block_size=16 * KIB)
        seed = swarm.add_peer(config=fast_config(upload=8 * KIB), is_seed=True)
        leecher = swarm.add_peer(config=fast_config(upload=8 * KIB, download=1 * KIB))
        swarm.run(15)  # past the first choke round, mid-block
        link = seed.connections[leecher.address]
        assert swarm._budgets[swarm._active_connections.index(link)] == 1 * KIB
        node = swarm._upload_nodes[leecher.address]
        leecher.leave()
        swarm.run(1)
        assert link.closed and link not in swarm._active_connections
        assert list(swarm._capacities[node : node + 2]) == [INF, INF]
        leecher.join()
        assert list(swarm._capacities[node : node + 2]) == [8 * KIB, 1 * KIB]

    def test_forced_reallocation_reuses_each_links_flow(self, monkeypatch):
        """Complexity guard: re-running the allocator over an unchanged
        set of 50 links sorts the links and gathers the node pairs they
        already carry; it constructs no ``Flow`` and probes no capacity
        map per flow (counted, not timed)."""
        swarm = tiny_swarm(
            num_pieces=4, piece_size=64 * KIB, block_size=64 * KIB, seed=3
        )
        for __ in range(30):
            swarm.add_peer(config=fast_config(upload=1 * KIB))
        links = [
            connection
            for peer in swarm.peers.values()
            for connection in peer.connections.values()
        ][:50]
        assert len(links) == 50
        for connection in links:
            connection.am_choking = False
            connection.enqueue_upload(BlockRef(0, 0, 64 * KIB))
        swarm._tick()  # the first allocation over these links
        pairs = {connection: connection.flow_nodes for connection in links}

        built, probes, allocated = [], [], []

        class CountingFlow(bandwidth_module.Flow):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        class CountingCaps(dict):
            def get(self, *args):
                probes.append(args)
                return super().get(*args)

            def __getitem__(self, key):
                probes.append(key)
                return super().__getitem__(key)

            def __contains__(self, key):
                probes.append(key)
                return super().__contains__(key)

        allocate = swarm._allocate

        def recording(up_nodes, down_nodes, capacities):
            allocated.append(list(zip(up_nodes.tolist(), down_nodes.tolist())))
            return allocate(up_nodes, down_nodes, capacities)

        monkeypatch.setattr(bandwidth_module, "Flow", CountingFlow)
        swarm._upload_caps = CountingCaps(swarm._upload_caps)
        swarm._allocate = recording
        for __ in range(3):
            swarm._members_generation += 1
            swarm._tick()
        assert len(allocated) == 3  # the allocator did run again each time
        ordered = sorted(links, key=lambda c: (c.local.address, c.remote.address))
        nodes = swarm._upload_nodes
        for flows in allocated:
            assert flows == [
                (nodes[c.local.address], nodes[c.remote.address] + 1)
                for c in ordered
            ]
        assert built == []
        assert probes == []
        assert all(connection.flow_nodes is pairs[connection] for connection in links)


class TestRejoinIsRegistered:
    """A peer that comes back after a leave is entered into every book
    its departure took it out of (regression: the rejoined peer had no
    capacity entry, so it uploaded unconstrained, and was invisible to
    ``peer_by_address``, ``capacity_seconds``, the byte tables and
    ``global_counts``)."""

    CAP = 2 * KIB

    def test_books_after_rejoin(self):
        swarm = tiny_swarm(num_pieces=64, piece_size=16 * KIB, block_size=16 * KIB)
        seed = swarm.add_peer(config=fast_config(upload=self.CAP), is_seed=True)
        for __ in range(3):
            swarm.add_peer(config=fast_config(upload=self.CAP))
        swarm.run(15)
        seed.leave()
        assert swarm.peer_by_address(seed.address) is None
        swarm.run(5)
        seed.join()
        rejoined_at = swarm.simulator.now
        # Newcomers reach the seed through the tracker, which requires it
        # to be findable by address.
        for __ in range(3):
            swarm.add_peer(config=fast_config(upload=self.CAP))
        uploaded_before = seed.total_uploaded
        uncapped = []

        def every_uploader_is_capped(now):
            uncapped.extend(
                (now, connection.local.address)
                for connection in swarm._upload_candidates
                if connection.local.address not in swarm._upload_caps
            )

        swarm.on_tick(every_uploader_is_capped)
        horizon = 40
        result = swarm.run(horizon)

        assert not uncapped
        sent = seed.total_uploaded - uploaded_before
        assert 0 < sent <= self.CAP * horizon
        assert swarm.peer_by_address(seed.address) is seed
        assert result.join_times[seed.address] == rejoined_at
        assert seed.address not in result.departures
        assert sum(result.bytes_uploaded.values()) == pytest.approx(
            result.bytes_moved, rel=1e-12
        )
        assert sum(result.bytes_downloaded.values()) == pytest.approx(
            result.bytes_moved, rel=1e-12
        )
        recount = [0] * 64
        for peer in swarm.peers.values():
            assert peer.online
            for piece in peer.bitfield.have_indices():
                recount[piece] += 1
        assert list(swarm.global_counts) == recount
        assert is_transient(swarm) == (min(recount) <= 1)

    def test_offline_peer_is_in_no_book_until_it_joins(self):
        """``capacity_seconds`` integrates over online peers only."""
        swarm = tiny_swarm(num_pieces=4)
        swarm.add_peer(config=fast_config(upload=self.CAP), is_seed=True)
        waiting = swarm.add_peer(config=fast_config(upload=64 * KIB), join=False)
        result = swarm.run(10)
        assert result.capacity_seconds == self.CAP * 10
        assert waiting.address not in swarm.peers
        swarm.join_peer(waiting)
        assert swarm.peer_by_address(waiting.address) is waiting
        assert result.join_times[waiting.address] == 10.0
        assert swarm.run(10).capacity_seconds == self.CAP * 20 + 64 * KIB * 10
        with pytest.raises(ValueError):
            swarm.add_peer(config=fast_config(), address=waiting.address)
