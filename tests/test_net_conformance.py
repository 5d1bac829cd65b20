"""Differential sim-vs-net conformance tests.

The same torrent runs through the discrete-event engine and through a
:class:`~repro.net.swarm.LiveSwarm` of real asyncio peers on localhost
TCP.  Both emit schema-v1 traces, and both must satisfy the same
protocol invariants (message grammar, unchoke cardinality, byte
conservation, rarest-first piece selection) — plus the runs must agree
on what actually happened: every leecher completes every piece, and the
replayed :class:`~repro.instrumentation.logger.Instrumentation`
counters match (counts, not rates — wall-clock and virtual time scale
differently by design).

The checker negative tests at the bottom prove each invariant detector
actually fires on a violating trace, so green differential runs mean
something.
"""

import pytest

from repro.analysis import interarrival_summary
from repro.instrumentation.replay import iter_trace, replay_instrumentation, traced_peers
from repro.instrumentation.trace import TraceRecorder, TracingObserver
from repro.net.conformance import (
    check_byte_conservation,
    check_message_grammar,
    check_rarest_first,
    check_trace,
    check_unchoke_cardinality,
    completion_counts,
)
from repro.net.swarm import LiveSwarm
from repro.protocol.metainfo import make_metainfo
from repro.sim.config import KIB, PeerConfig

from tests.conftest import fast_config, tiny_swarm

pytestmark = pytest.mark.net

NUM_PIECES = 24
SEEDS = 1
LEECHERS = 5
SEED = 11

# Live peers run against wall clock: generous upload caps and a short
# choke interval keep the run under a couple of seconds while still
# exercising several choke rounds.
LIVE_CONFIG = PeerConfig(
    upload_capacity=256 * KIB,
    choke_interval=0.2,
    rate_window=1.0,
    min_peer_set=1,
)


def _make_metainfo(name):
    return make_metainfo(name, num_pieces=NUM_PIECES, piece_size=4 * KIB, block_size=KIB)


@pytest.fixture(scope="module")
def live_run():
    """One clean 6-peer live download, traced swarm-wide."""
    recorder = TraceRecorder()
    swarm = LiveSwarm(
        _make_metainfo("difflive"), seed=SEED, config=LIVE_CONFIG, recorder=recorder
    )
    swarm.add_peers(SEEDS, LEECHERS)
    result = swarm.run_sync(timeout=60.0)
    return swarm, recorder, result


@pytest.fixture(scope="module")
def sim_run():
    """The same scenario through the discrete-event engine."""
    recorder = TraceRecorder()
    swarm = tiny_swarm(num_pieces=NUM_PIECES, seed=SEED)
    swarm.observer_factory = lambda: TracingObserver(recorder)
    config = fast_config(upload=32 * KIB, min_peer_set=1)
    for _ in range(SEEDS):
        swarm.add_peer(config=config, is_seed=True)
    for _ in range(LEECHERS):
        swarm.add_peer(config=config)
    swarm.run(600.0)
    assert all(peer.is_seed for peer in swarm.peers.values())
    for peer in swarm.peers.values():
        peer.observer.finalize(now=swarm.simulator.now)
    recorder.close()
    return swarm, recorder


class TestLiveSwarm:
    def test_six_peer_swarm_downloads_to_completion(self, live_run):
        swarm, recorder, result = live_run
        assert len(result.addresses) == SEEDS + LEECHERS
        assert result.all_complete
        # Leechers really moved the payload: each downloaded at least the
        # torrent (endgame duplicates can push the count slightly over).
        torrent_bytes = NUM_PIECES * 4 * KIB
        leechers = [p for p in swarm.peers if p.became_seed_at != 0.0]
        assert len(leechers) == LEECHERS
        for peer in leechers:
            assert result.downloaded[peer.address] >= torrent_bytes
        assert result.trace_fingerprint is not None

    def test_live_trace_satisfies_all_invariants(self, live_run):
        __, recorder, __ = live_run
        report = check_trace(recorder, num_pieces=NUM_PIECES)
        report.assert_ok()
        # Every checker actually evaluated something — a trivially green
        # report over an empty trace would also "pass".
        assert report.checks["grammar"] > 100
        assert report.checks["unchoke"] >= SEEDS + LEECHERS
        assert report.checks["conservation"] > 1
        assert report.checks["rarest_first"] > 10

    def test_conn_open_says_whether_the_remote_is_a_seed(self):
        """A live ``conn_open`` carries what the remote's opening BITFIELD
        said, as the simulator's carries the remote's bitfield."""
        recorder = TraceRecorder()
        swarm = LiveSwarm(
            _make_metainfo("connopen"),
            seed=SEED,
            config=LIVE_CONFIG,
            recorder=recorder,
            trace_all=False,  # only the first peer added is traced
        )
        watched = swarm.add_peer()
        seed = swarm.add_peer(is_seed=True)
        other = swarm.add_peer()
        result = swarm.run_sync(timeout=60.0)
        assert result.all_complete
        opened = [
            (event["peer"], event["remote"], event["remote_complete"])
            for event in iter_trace(recorder)
            if event["type"] == "conn_open"
        ]
        assert sorted(opened) == sorted(
            [(watched.address, seed.address, True), (watched.address, other.address, False)]
        )

    def test_sim_trace_satisfies_all_invariants(self, sim_run):
        __, recorder = sim_run
        report = check_trace(recorder, num_pieces=NUM_PIECES)
        report.assert_ok()
        assert report.checks["grammar"] > 100
        assert report.checks["rarest_first"] > 10


class TestDifferential:
    def test_completion_counts_match(self, sim_run, live_run):
        """Sim and live agree on who completed how many pieces."""
        sim_counts = completion_counts(sim_run[1])
        live_counts = completion_counts(live_run[1])
        assert sorted(sim_counts.values()) == sorted(live_counts.values())
        # Each run: exactly the leechers complete, each every piece.
        for counts, recorder in ((sim_counts, sim_run[1]), (live_counts, live_run[1])):
            assert len(traced_peers(recorder)) == SEEDS + LEECHERS
            assert len(counts) == LEECHERS
            assert set(counts.values()) == {NUM_PIECES}

    def test_replayed_instrumentation_counters_match(self, sim_run, live_run):
        """Replaying either trace yields the same completion counters."""
        replays = []
        for __, recorder in ((sim_run[0], sim_run[1]), (live_run[0], live_run[1])):
            counts = completion_counts(recorder)
            leecher = sorted(counts)[0]
            replays.append(replay_instrumentation(recorder, peer=leecher))
        sim_replay, live_replay = replays
        assert len(sim_replay.piece_completions) == NUM_PIECES
        assert len(live_replay.piece_completions) == NUM_PIECES
        assert sim_replay.seed_state_at is not None
        assert live_replay.seed_state_at is not None
        for replay in replays:
            assert replay.messages_sent > 0
            assert replay.messages_received > 0
            assert replay.replayed_from_events > 0

    def test_live_trace_flows_through_analysis_unchanged(self, live_run):
        """A live trace feeds repro.analysis exactly like a sim trace."""
        __, recorder, __ = live_run
        leecher = sorted(completion_counts(recorder))[0]
        instrumentation = replay_instrumentation(recorder, peer=leecher)
        summary = interarrival_summary(instrumentation, kind="piece")
        assert len(summary.all_items) == NUM_PIECES - 1
        assert all(interval >= 0.0 for interval in summary.all_items)


# ----------------------------------------------------------------------
# Negative tests: each checker must fire on a trace that violates it.
# ----------------------------------------------------------------------


def _open(peer, remote):
    return {"type": "conn_open", "peer": peer, "remote": remote}


def _bitfield(peer, remote, direction, bits):
    return {
        "type": direction,
        "peer": peer,
        "remote": remote,
        "msg": "Bitfield",
        "bits": bits,
    }


class TestGrammarChecker:
    def test_flags_message_before_open(self):
        report = check_message_grammar(
            [{"type": "msg_sent", "peer": "a", "remote": "b", "msg": "Bitfield"}]
        )
        assert any("before handshake" in v for v in report.violations)

    def test_flags_non_bitfield_first(self):
        report = check_message_grammar(
            [
                _open("a", "b"),
                {"type": "msg_sent", "peer": "a", "remote": "b", "msg": "Interested"},
            ]
        )
        assert any("first sent message not BITFIELD" in v for v in report.violations)

    def test_flags_request_while_choked(self):
        events = [
            _open("a", "b"),
            _bitfield("a", "b", "msg_sent", ""),
            _bitfield("a", "b", "msg_recv", "ff"),
            {"type": "msg_sent", "peer": "a", "remote": "b", "msg": "Request",
             "piece": 0, "offset": 0, "length": 1024},
        ]
        report = check_message_grammar(events)
        assert any("REQUEST while choked" in v for v in report.violations)
        # After an Unchoke the same Request is legal.
        events.insert(3, {"type": "msg_recv", "peer": "a", "remote": "b",
                          "msg": "Unchoke"})
        assert check_message_grammar(events).ok


class TestUnchokeChecker:
    def test_flags_slot_overflow_and_duplicates(self):
        over = {"type": "choke", "peer": "a", "unchoked": ["b", "c", "d", "e", "f"]}
        dupe = {"type": "choke", "peer": "a", "unchoked": ["b", "b"]}
        report = check_unchoke_cardinality([over, dupe], unchoke_slots=4)
        assert len(report.violations) == 2
        assert check_unchoke_cardinality(
            [{"type": "choke", "peer": "a", "unchoked": ["b", "c", "d", "e"]}]
        ).ok


class TestConservationChecker:
    def test_flags_swarm_and_link_asymmetry(self):
        events = [
            {"type": "conn_close", "peer": "a", "remote": "b", "up": 100.0, "down": 0.0},
            {"type": "conn_close", "peer": "b", "remote": "a", "up": 0.0, "down": 60.0},
        ]
        report = check_byte_conservation(events)
        assert any("not conserved" in v for v in report.violations)
        assert any("link a->b" in v for v in report.violations)

    def test_accepts_balanced_books(self):
        events = [
            {"type": "conn_close", "peer": "a", "remote": "b", "up": 100.0, "down": 0.0},
            {"type": "finalize", "peer": "b",
             "open": [{"remote": "a", "up": 0.0, "down": 100.0}]},
        ]
        assert check_byte_conservation(events).ok


class TestRarestFirstChecker:
    def _trace(self, requested_piece):
        # Three pieces; remote "r1" offers {0,1,2}, "r2" offers {0}.
        # Availability is therefore [2, 1, 1]: requesting piece 0 first
        # ignores two strictly rarer candidates r1 offers.
        return [
            {"type": "attach", "peer": "a", "pieces": 3, "seed": False},
            _open("a", "r1"),
            _open("a", "r2"),
            _bitfield("a", "r1", "msg_recv", "e0"),
            _bitfield("a", "r2", "msg_recv", "80"),
            {"type": "msg_sent", "peer": "a", "remote": "r1", "msg": "Request",
             "piece": requested_piece, "offset": 0, "length": 1024},
        ]

    def test_flags_common_piece_over_rare(self):
        report = check_rarest_first(self._trace(0), random_first_threshold=0)
        assert report.checks["rarest_first"] == 1
        assert any("availability" in v for v in report.violations)

    def test_accepts_rarest_candidate(self):
        assert check_rarest_first(self._trace(1), random_first_threshold=0).ok

    def test_random_first_warmup_is_exempt(self):
        # With the default threshold the peer has 0 < 4 pieces: skipped.
        assert check_rarest_first(self._trace(0), random_first_threshold=4).ok
