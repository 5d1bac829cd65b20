"""Behavioural tests of peer-set maintenance, pipelining, and the
protocol niceties not covered by the core integration tests."""

from repro.protocol.messages import Cancel, Request
from repro.sim.config import (
    KIB,
    REQUEST_PIPELINE_DEPTH,
    TRACKER_ANNOUNCE_SECONDS,
    PeerConfig,
    SwarmConfig,
)

from tests.conftest import fast_config, tiny_swarm


class TestTrackerInteraction:
    def test_refill_when_peer_set_shrinks(self):
        swarm = tiny_swarm(num_pieces=64)
        config = PeerConfig(
            upload_capacity=2 * KIB, min_peer_set=4, max_peer_set=10,
            max_initiated=8,
        )
        watcher = swarm.add_peer(config=config)
        # A first wave of peers; the watcher connects to them.
        wave = [swarm.add_peer(config=fast_config(upload=1 * KIB)) for __ in range(5)]
        swarm.run(5)
        assert watcher.peer_set_size >= 4
        # A second wave joins while the first disappears: the watcher has
        # to learn about them from the tracker to stay connected.
        for peer in wave:
            peer.leave()
        for __ in range(5):
            swarm.add_peer(config=fast_config(upload=1 * KIB))
        swarm.run(120)
        assert watcher.peer_set_size >= 2

    def test_periodic_announce_keeps_tracker_current(self):
        swarm = tiny_swarm(num_pieces=4, swarm_config=SwarmConfig(seed=5))
        swarm.add_peer(config=fast_config(), is_seed=True)
        before = swarm.tracker.announce_count
        swarm.run(2 * TRACKER_ANNOUNCE_SECONDS + 1.0)
        # Two periodic announces after the started one.
        assert swarm.tracker.announce_count >= before + 2

    def test_completed_event_sent_once(self):
        swarm = tiny_swarm(num_pieces=4)
        swarm.add_peer(config=fast_config(), is_seed=True)
        swarm.add_peer(config=fast_config())
        swarm.run(200)
        assert swarm.tracker.completed_count == 1


class TestPipelining:
    def test_outstanding_requests_bounded(self):
        swarm = tiny_swarm(num_pieces=64)
        swarm.add_peer(config=fast_config(upload=1 * KIB), is_seed=True)
        leecher = swarm.add_peer(config=PeerConfig(upload_capacity=1 * KIB))
        max_outstanding = 0

        def probe(now):
            nonlocal max_outstanding
            for connection in leecher.connections.values():
                max_outstanding = max(max_outstanding, len(connection.request_times))

        swarm.on_tick(probe)
        swarm.run(60)
        assert 0 < max_outstanding <= REQUEST_PIPELINE_DEPTH

    def test_requests_resent_after_choke(self):
        """Blocks lost to a choke are re-requested (from anyone)."""
        swarm = tiny_swarm(num_pieces=32)
        seed = swarm.add_peer(config=fast_config(upload=2 * KIB), is_seed=True)
        # Enough competition that the leecher gets choked sometimes.
        for __ in range(6):
            swarm.add_peer(config=fast_config(upload=2 * KIB))
        slow = swarm.add_peer(config=fast_config(upload=0.5 * KIB))
        swarm.run(2000)
        assert slow.bitfield.is_complete()


class TestEndGame:
    def test_cancels_sent_in_endgame(self):
        """With several sources, end game duplicates requests and then
        cancels the losers."""
        from repro.instrumentation import Instrumentation

        swarm = tiny_swarm(num_pieces=8, seed=3)
        for __ in range(3):
            swarm.add_peer(config=fast_config(upload=1 * KIB), is_seed=True)
        trace = Instrumentation()
        swarm.add_peer(config=fast_config(), observer=trace)
        trace.start_sampling()
        swarm.run(300)
        assert trace.endgame_at is not None
        # Count CANCEL messages in the observer's sent stream indirectly:
        # duplicated blocks mean total received block bytes can slightly
        # exceed the content; the cancel path keeps the overshoot tiny.
        content = swarm.metainfo.geometry.total_size
        received = sum(length for *__, length in trace.block_arrivals)
        assert received <= content + 8 * swarm.metainfo.geometry.block_size

    def test_duplicate_block_delivery_ignored(self):
        """If two peers race a block before the cancel lands, the piece
        still completes exactly once."""
        from repro.instrumentation import Instrumentation

        swarm = tiny_swarm(num_pieces=4, seed=9)
        for __ in range(4):
            swarm.add_peer(config=fast_config(upload=1 * KIB), is_seed=True)
        trace = Instrumentation()
        local = swarm.add_peer(config=fast_config(), observer=trace)
        trace.start_sampling()
        swarm.run(300)
        completed = [piece for __, piece in trace.piece_completions]
        assert sorted(completed) == sorted(set(completed))
        assert local.bitfield.is_complete()


class TestOptimisticUnchoke:
    def test_newcomer_with_nothing_gets_bootstrapped(self):
        """A peer with no pieces cannot earn regular unchokes; only the
        optimistic unchoke (or a seed's rotation) can bootstrap it."""
        swarm = tiny_swarm(num_pieces=32, seed=15)
        # No seeds at all after the start: a pure leecher economy.
        veterans = []
        from repro.protocol.bitfield import Bitfield
        from random import Random

        rng = Random(4)
        for __ in range(8):
            have = rng.sample(range(32), 24)
            veterans.append(
                swarm.add_peer(
                    config=fast_config(upload=2 * KIB),
                    initial_bitfield=Bitfield(32, have=have),
                )
            )
        newcomer = swarm.add_peer(config=fast_config(upload=2 * KIB))
        swarm.run(120)
        assert newcomer.total_downloaded > 0

    def test_seed_ignores_upload_from_peers(self):
        """A seed never downloads: its connections carry upload only."""
        swarm = tiny_swarm(num_pieces=8)
        seed = swarm.add_peer(config=fast_config(), is_seed=True)
        swarm.add_peer(config=fast_config())
        swarm.run(120)
        assert seed.total_downloaded == 0.0


class TestMessageLegality:
    def test_request_while_choked_is_dropped(self):
        swarm = tiny_swarm(num_pieces=4)
        seed = swarm.add_peer(config=fast_config(), is_seed=True)
        leecher = swarm.add_peer(config=fast_config())
        conn = seed.connections[leecher.address]
        assert conn.am_choking
        seed._handle_request(conn, Request(piece=0, offset=0, length=1024))
        assert len(conn.upload_queue) == 0

    def test_request_for_missing_piece_is_dropped(self):
        swarm = tiny_swarm(num_pieces=4)
        a = swarm.add_peer(config=fast_config())
        b = swarm.add_peer(config=fast_config())
        conn = a.connections[b.address]
        conn.am_choking = False
        a._handle_request(conn, Request(piece=0, offset=0, length=1024))
        assert len(conn.upload_queue) == 0

    def test_cancel_for_unqueued_block_is_noop(self):
        swarm = tiny_swarm(num_pieces=4)
        seed = swarm.add_peer(config=fast_config(), is_seed=True)
        leecher = swarm.add_peer(config=fast_config())
        conn = seed.connections[leecher.address]
        seed._handle_cancel(conn, Cancel(piece=0, offset=0, length=1024))
        assert len(conn.upload_queue) == 0

    def test_duplicate_request_not_queued_twice(self):
        swarm = tiny_swarm(num_pieces=4)
        seed = swarm.add_peer(config=fast_config(), is_seed=True)
        leecher = swarm.add_peer(config=fast_config())
        conn = seed.connections[leecher.address]
        conn.am_choking = False
        message = Request(piece=0, offset=0, length=1024)
        seed._handle_request(conn, message)
        seed._handle_request(conn, message)
        assert len(conn.upload_queue) == 1
