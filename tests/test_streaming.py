"""Streaming workload tests: playback model, metrics, determinism.

Covers the streaming piece-selection family end to end:

* the playback state machine obeys its invariants (monotonic in-order
  prefix, disjoint rebuffer windows, startup before finish);
* playback metrics replay **byte-identically** from the JSONL trace and
  from the binary (RBT1) container;
* the engine's fast paths are invisible to a streaming run — identical
  trace fingerprints on their reference twins;
* enabling playback without a playback-aware selector does not perturb
  the simulation (observer-only), and the pre-streaming baseline trace
  fingerprint of the default campaign shard is pinned.
"""

import pytest

from repro.analysis.streaming import in_order_lag, playback_summary
from repro.core.rarest_first import make_selector
from repro.instrumentation import (
    BinaryTraceRecorder,
    TraceRecorder,
    binary_to_jsonl,
    iter_trace,
    replay_instrumentation,
)
from repro.sim.config import KIB, PeerConfig
from repro.workloads import build_experiment, scaled_copy, scenario_by_id

from tests.conftest import ENGINE_TWINS

pytestmark = pytest.mark.streaming

#: Every Instrumentation field the playback series writes; replay must
#: reproduce each one with exact equality (floats included).
PLAYBACK_FIELDS = (
    "playback_events",
    "playback_started_at",
    "playback_startup_delay",
    "playback_finished_at",
    "rebuffer_intervals",
    "in_order_history",
)

STREAM_RATE = 24.0 * KIB


def run_streaming(
    recorder=None,
    selector_spec="seq-window:window=8",
    seed=7,
    duration=400.0,
    playback_rate=STREAM_RATE,
):
    """One seeded torrent-2 streaming run; returns the harness."""
    scenario = scaled_copy(scenario_by_id(2), duration=duration)
    harness = build_experiment(
        scenario,
        seed=seed,
        local_selector=make_selector(selector_spec),
        population_selector_factory=lambda: make_selector(selector_spec),
        trace_recorder=recorder,
        playback_rate=playback_rate,
    )
    harness.run(duration)
    return harness


@pytest.fixture(scope="module")
def jsonl_run():
    recorder = TraceRecorder()
    harness = run_streaming(recorder)
    recorder.close()
    return harness, recorder


class TestPlaybackStateMachine:
    def test_invariants(self, jsonl_run):
        harness, __ = jsonl_run
        instr = harness.instrumentation
        assert instr.playback_events, "streaming run recorded no playback"
        # In-order prefix is monotone and the event times non-decreasing.
        times = [t for t, __, __ in instr.in_order_history]
        pieces = [p for __, p, __ in instr.in_order_history]
        assert times == sorted(times)
        assert pieces == sorted(pieces)
        # Playback started only after the startup buffer filled.
        playback = harness.local_peer.playback
        assert playback is not None
        if playback.started_at is not None:
            start_event = next(
                (t, d) for t, k, d in instr.playback_events if k == "start"
            )
            assert start_event[0] == instr.playback_started_at
            assert instr.playback_startup_delay == (
                instr.playback_started_at - harness.local_peer.joined_at
            )
        # Rebuffer windows are disjoint, ordered, and only the last may
        # still be open when the run stops.
        intervals = instr.rebuffer_intervals
        for index, (start, end) in enumerate(intervals):
            if end is None:
                assert index == len(intervals) - 1
            else:
                assert end >= start
            if index:
                previous_end = intervals[index - 1][1]
                assert previous_end is not None and start >= previous_end

    def test_position_never_exceeds_in_order_bytes(self, jsonl_run):
        harness, __ = jsonl_run
        for __, kind, data in harness.instrumentation.playback_events:
            assert data["position"] <= data["bytes"]
            assert data["bytes"] == min(
                data["pieces"] * harness.scenario.piece_size,
                harness.scenario.content_size,
            )

    def test_in_order_lag_is_non_negative(self, jsonl_run):
        harness, __ = jsonl_run
        for __, lag in in_order_lag(harness.instrumentation):
            assert lag >= 0

    def test_summary_folds_the_series(self, jsonl_run):
        harness, __ = jsonl_run
        instr = harness.instrumentation
        summary = playback_summary(instr)
        assert summary.startup_delay == instr.playback_startup_delay
        assert summary.rebuffer_count == len(instr.rebuffer_intervals)
        assert summary.in_order_pieces == instr.in_order_history[-1][1]

    def test_summary_requires_playback(self):
        from repro.instrumentation import Instrumentation

        with pytest.raises(ValueError):
            playback_summary(Instrumentation())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PeerConfig(playback_rate=-1.0)
        with pytest.raises(ValueError):
            PeerConfig(playback_rate=0.0)
        with pytest.raises(ValueError):
            PeerConfig(playback_startup_pieces=0)


class TestStreamingReplayDeterminism:
    def test_jsonl_replay_is_byte_identical(self, jsonl_run):
        harness, recorder = jsonl_run
        replayed = replay_instrumentation(
            recorder, peer=harness.local_peer.address
        )
        for field in PLAYBACK_FIELDS:
            assert getattr(replayed, field) == getattr(
                harness.instrumentation, field
            ), field
        assert playback_summary(replayed) == playback_summary(
            harness.instrumentation
        )

    def test_binary_container_round_trips_playback(self, jsonl_run):
        harness, jsonl_recorder = jsonl_run
        binary = BinaryTraceRecorder()
        binary_harness = run_streaming(binary)
        binary.close()
        # The binary recorder stores playback events as verbatim JSON
        # records: decoding reproduces the JSONL file byte for byte.
        assert binary_to_jsonl(binary) == jsonl_recorder.lines()
        replayed = replay_instrumentation(
            binary_to_jsonl(binary), peer=binary_harness.local_peer.address
        )
        for field in PLAYBACK_FIELDS:
            assert getattr(replayed, field) == getattr(
                harness.instrumentation, field
            ), field

    def test_fast_and_reference_engines_agree(self, jsonl_run, twins):
        """Playback bindings make selection depend on simulated time;
        the fast paths must still yield the same trace and the same
        playback outcomes as the all-reference engine."""
        harness, fast_recorder = jsonl_run
        recorder = TraceRecorder()
        with twins(*ENGINE_TWINS):
            reference = run_streaming(recorder)
        recorder.close()
        assert recorder.fingerprint == fast_recorder.fingerprint
        assert playback_summary(reference.instrumentation) == playback_summary(
            harness.instrumentation
        )


class TestStreamingGating:
    def test_playback_off_means_no_playback_events(self):
        recorder = TraceRecorder()
        run_streaming(recorder, selector_spec="rarest-first",
                      playback_rate=None, duration=200.0)
        recorder.close()
        assert not any(
            event["type"] == "playback" for event in iter_trace(recorder)
        )

    def test_playback_is_observer_only_for_non_streaming_selectors(self):
        """With the default (position-blind) selector, turning playback
        on must not change a single simulation outcome."""

        def outcomes(playback_rate):
            harness = run_streaming(
                selector_spec="rarest-first",
                playback_rate=playback_rate,
                duration=200.0,
            )
            result = harness.swarm.result
            return (
                result.bytes_moved,
                sorted(result.completions.items()),
                {
                    address: list(peer.bitfield.have_indices())
                    for address, peer in harness.swarm.peers.items()
                },
            )

        assert outcomes(None) == outcomes(STREAM_RATE)

    def test_baseline_campaign_fingerprint_is_pinned(self):
        """The default (non-streaming) campaign shard must keep its
        pre-streaming trace fingerprint: the whole family is gated."""
        from repro.campaign.runner import execute_shard
        from repro.campaign.spec import ShardSpec, derive_shard_seed
        from repro.workloads import RunOptions

        shard = ShardSpec(
            torrent_id=2,
            scenario="smoke",
            replicate=0,
            seed=derive_shard_seed(3, 2, "smoke", 0),
            options=RunOptions(duration=240.0),
        )
        record, __ = execute_shard(shard)
        # Pinned baseline.  Regenerated when tracker announces moved to
        # caller-RNG sampling (each peer's draws became a function of
        # its own announce sequence instead of a shared tracker stream).
        assert record["trace_fingerprint"] == (
            "11873d630ec8ec07258e1cfe1424d5ebf5a3c1ebb465b967a02bb70f4e7662f3"
        )


class TestStreamingSelectorsImproveStreaming:
    def test_seq_window_starts_earlier_than_rarest_first(self):
        """The point of the family: on the same swarm, the windowed
        selector reaches playable in-order state no later than pure
        rarest first (which downloads out of order)."""

        def in_order(selector_spec):
            harness = run_streaming(
                selector_spec=selector_spec, duration=300.0
            )
            history = harness.instrumentation.in_order_history
            return history[-1][1] if history else 0

        assert in_order("seq-window:window=8") >= in_order("rarest-first")
