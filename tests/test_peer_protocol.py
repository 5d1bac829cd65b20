"""Integration tests of the peer protocol over the simulator.

These drive small real swarms end to end: connection establishment,
interest signalling, choke rounds, block transfer, piece completion and
the seed transition.
"""

import pytest

from repro.core.choke import SeedChoker
from repro.protocol.bitfield import Bitfield
from repro.sim.config import KIB, UNCHOKE_SLOTS, PeerConfig
from repro.sim.peer import PeerState

from tests.conftest import fast_config, tiny_swarm


class TestOneSeedOneLeecher:
    def test_full_download(self):
        swarm = tiny_swarm(num_pieces=8)
        seed = swarm.add_peer(config=fast_config(), is_seed=True)
        leecher = swarm.add_peer(config=fast_config())
        swarm.run(300)
        assert leecher.bitfield.is_complete()
        assert leecher.state is PeerState.SEED

    def test_transfer_time_respects_seed_capacity(self):
        # 8 pieces x 4 kB = 32 kB at 2 kB/s: at least 16 s, and the choke
        # round cadence adds a delay before the first unchoke.
        swarm = tiny_swarm(num_pieces=8)
        swarm.add_peer(config=fast_config(upload=2 * KIB), is_seed=True)
        leecher = swarm.add_peer(config=fast_config())
        swarm.run(10)
        assert not leecher.bitfield.is_complete()
        result = swarm.run(400)
        completion = result.completions[leecher.address]
        assert completion >= 16.0

    def test_byte_accounting_consistent(self):
        swarm = tiny_swarm(num_pieces=8)
        seed = swarm.add_peer(config=fast_config(), is_seed=True)
        leecher = swarm.add_peer(config=fast_config())
        swarm.run(300)
        content = swarm.metainfo.geometry.total_size
        assert leecher.total_downloaded == pytest.approx(content)
        assert seed.total_uploaded == pytest.approx(content)

    def test_seed_never_interested(self):
        swarm = tiny_swarm(num_pieces=4)
        seed = swarm.add_peer(config=fast_config(), is_seed=True)
        swarm.add_peer(config=fast_config())
        swarm.run(50)
        for connection in seed.connections.values():
            assert not connection.am_interested

    def test_leecher_closes_seed_connections_on_completion(self):
        swarm = tiny_swarm(num_pieces=4)
        seed = swarm.add_peer(config=fast_config(), is_seed=True)
        leecher = swarm.add_peer(config=fast_config())
        swarm.run(300)
        assert leecher.is_seed
        assert seed.address not in leecher.connections
        assert leecher.address not in seed.connections


class TestHashVerification:
    def test_completes_with_real_sha1_checks(self):
        swarm = tiny_swarm(num_pieces=4, verify_hashes=True)
        swarm.add_peer(config=fast_config(), is_seed=True)
        leecher = swarm.add_peer(config=fast_config())
        swarm.run(300)
        assert leecher.bitfield.is_complete()

    def test_corrupted_piece_is_redownloaded(self):
        swarm = tiny_swarm(num_pieces=4, verify_hashes=True)
        seed = swarm.add_peer(config=fast_config(), is_seed=True)
        leecher = swarm.add_peer(config=fast_config())

        # Sabotage the first served block of piece 0 once.
        original = seed.metainfo.piece_payload
        state = {"corrupted": False}

        def corrupting(piece):
            data = original(piece)
            if piece == 0 and not state["corrupted"]:
                state["corrupted"] = True
                return b"\x00" * len(data)
            return data

        seed.metainfo = type(seed.metainfo).synthetic(
            "tiny", seed.metainfo.geometry.total_size,
            seed.metainfo.geometry.piece_size, seed.metainfo.geometry.block_size,
        )
        seed.metainfo.piece_payload = corrupting  # type: ignore[assignment]

        from repro.instrumentation import Instrumentation

        observer = Instrumentation()
        observer.on_attached(leecher)
        leecher.observer = observer
        swarm.run(400)
        assert leecher.bitfield.is_complete()
        assert len(observer.hash_failures) >= 1
        assert observer.hash_failures[0][1] == 0


class TestPeerSetManagement:
    def test_max_peer_set_respected(self):
        swarm = tiny_swarm(num_pieces=4)
        config = PeerConfig(upload_capacity=8 * KIB, max_peer_set=5, min_peer_set=2)
        hub = swarm.add_peer(config=config, is_seed=True)
        for __ in range(12):
            swarm.add_peer(config=fast_config())
        swarm.run(60)
        assert hub.peer_set_size <= 5

    def test_max_initiated_respected(self):
        swarm = tiny_swarm(num_pieces=4)
        for __ in range(30):
            swarm.add_peer(config=fast_config(), is_seed=True, join=True)
        config = PeerConfig(
            upload_capacity=8 * KIB, max_initiated=10, max_peer_set=80, min_peer_set=20
        )
        joiner = swarm.add_peer(config=config)
        assert joiner.initiated_count <= 10

    def test_no_seed_to_seed_connections(self):
        swarm = tiny_swarm(num_pieces=4)
        a = swarm.add_peer(config=fast_config(), is_seed=True)
        b = swarm.add_peer(config=fast_config(), is_seed=True)
        swarm.run(50)
        assert b.address not in a.connections
        assert a.address not in b.connections

    def test_departure_cleans_both_sides(self):
        swarm = tiny_swarm(num_pieces=4)
        seed = swarm.add_peer(config=fast_config(), is_seed=True)
        leecher = swarm.add_peer(config=fast_config())
        swarm.run(5)
        assert leecher.address in seed.connections
        leecher.leave()
        assert leecher.address not in seed.connections
        assert not leecher.online
        assert leecher.address not in swarm.peers

    def test_seeding_time_departure(self):
        swarm = tiny_swarm(num_pieces=4)
        swarm.add_peer(config=fast_config(), is_seed=True)
        leecher = swarm.add_peer(config=fast_config(seeding_time=30.0))
        result = swarm.run(600)
        assert leecher.address in result.departures
        completion = result.completions[leecher.address]
        assert result.departures[leecher.address] == pytest.approx(
            completion + 30.0, abs=1.0
        )


class TestInterestSignalling:
    def test_interest_tracks_bitfields(self):
        swarm = tiny_swarm(num_pieces=4)
        a = swarm.add_peer(
            config=fast_config(), initial_bitfield=Bitfield(4, have=[0, 1])
        )
        b = swarm.add_peer(
            config=fast_config(), initial_bitfield=Bitfield(4, have=[0])
        )
        swarm.run(2)
        conn_ab = a.connections[b.address]
        conn_ba = b.connections[a.address]
        assert not conn_ab.am_interested  # b's pieces are a subset of a's
        assert conn_ba.am_interested

    def test_not_interested_sent_when_last_needed_piece_arrives(self):
        swarm = tiny_swarm(num_pieces=2)
        swarm.add_peer(config=fast_config(), is_seed=True)
        partial = swarm.add_peer(
            config=fast_config(), initial_bitfield=Bitfield(2, have=[0])
        )
        other = swarm.add_peer(
            config=fast_config(), initial_bitfield=Bitfield(2, have=[0])
        )
        swarm.run(300)
        # Both finished; no leecher-leecher interest remains anywhere.
        assert partial.is_seed and other.is_seed


class TestChokeBehaviour:
    def test_active_peer_set_bounded(self):
        swarm = tiny_swarm(num_pieces=16)
        seed = swarm.add_peer(config=fast_config(), is_seed=True)
        for __ in range(12):
            swarm.add_peer(config=fast_config(upload=1 * KIB))
        max_active = 0
        def sample(now):
            nonlocal max_active
            active = sum(
                1
                for c in seed.connections.values()
                if not c.am_choking and c.peer_interested
            )
            max_active = max(max_active, active)
        swarm.on_tick(sample)
        swarm.run(120)
        assert max_active <= UNCHOKE_SLOTS

    def test_choking_clears_upload_queue(self):
        swarm = tiny_swarm(num_pieces=16)
        seed = swarm.add_peer(config=fast_config(upload=1 * KIB), is_seed=True)
        for __ in range(6):
            swarm.add_peer(config=fast_config(upload=1 * KIB))
        swarm.run(200)
        for connection in seed.connections.values():
            if connection.am_choking:
                assert len(connection.upload_queue) == 0

    def test_seed_rotates_service(self):
        """Under the new seed choke, every interested leecher eventually
        receives bytes from the seed."""
        swarm = tiny_swarm(num_pieces=32)
        seed = swarm.add_peer(
            config=fast_config(upload=4 * KIB),
            is_seed=True,
            seed_choker=SeedChoker(),
        )
        leechers = [
            # Zero-upload leechers: only the seed serves them, so receipt
            # proves the seed's rotation reached everyone.
            swarm.add_peer(config=fast_config(upload=0.0)) for __ in range(8)
        ]
        swarm.run(600)
        served = [leecher for leecher in leechers if leecher.total_downloaded > 0]
        assert len(served) == len(leechers)


class TestDeterminism:
    def test_identical_runs(self):
        def run():
            swarm = tiny_swarm(num_pieces=8, seed=123)
            swarm.add_peer(config=fast_config(), is_seed=True)
            for __ in range(5):
                swarm.add_peer(config=fast_config(upload=2 * KIB))
            result = swarm.run(400)
            return sorted(result.completions.items())

        assert run() == run()

    def test_different_seeds_differ(self):
        def run(seed):
            swarm = tiny_swarm(num_pieces=8, seed=seed)
            swarm.add_peer(config=fast_config(), is_seed=True)
            for __ in range(5):
                swarm.add_peer(config=fast_config(upload=2 * KIB))
            result = swarm.run(400)
            return sorted(result.completions.items())

        assert run(1) != run(2)
