"""Differential trace-replay harness.

The headline guarantee of the tracing layer: replaying a structured
trace file through :func:`replay_instrumentation` rebuilds an
``Instrumentation`` whose *every* derived artefact — remote-peer
records, snapshots, event logs, counters, and the figure series computed
from them — is field-for-field equal to the live instrumentation of the
run that wrote the trace.  Exercised for two seeded scenarios, a
steady-state torrent and a transient torrent, and, for the ``fault``
events only a live peer emits, on a hand-built trace.

Set ``REPRO_TRACE_ARTIFACTS`` to a directory to keep the trace files
(CI uploads them on failure); otherwise they go to pytest's tmp dir.
"""

import os
from dataclasses import asdict

import pytest

from repro.analysis import (
    interarrival_summary,
    peer_set_series,
    replication_series,
    summarize_entropy,
)
from repro.analysis.fairness import leecher_contribution, unchoke_interest_correlation
from repro.instrumentation import (
    TraceRecorder,
    iter_trace,
    replay_instrumentation,
    trace_stats,
)
from repro.workloads import build_experiment, scaled_copy, scenario_by_id

SCENARIOS = {
    "steady": dict(torrent_id=19, seed=7, duration=300.0),
    "transient": dict(torrent_id=2, seed=11, duration=400.0),
}


def artifact_dir(tmp_path):
    configured = os.environ.get("REPRO_TRACE_ARTIFACTS")
    if configured:
        os.makedirs(configured, exist_ok=True)
        return configured
    return str(tmp_path)


def run_and_trace(name, tmp_path):
    spec = SCENARIOS[name]
    scenario = scaled_copy(
        scenario_by_id(spec["torrent_id"]), duration=spec["duration"]
    )
    path = os.path.join(artifact_dir(tmp_path), "replay_%s.jsonl" % name)
    recorder = TraceRecorder(path)
    harness = build_experiment(
        scenario, seed=spec["seed"], trace_recorder=recorder
    )
    live = harness.run()
    recorder.close()
    return live, path


def record_state(record):
    state = dict(vars(record))
    for key in (
        "presence",
        "local_interested_in_remote",
        "remote_interested_in_local",
    ):
        if key in state:
            tracker = state[key]
            state[key] = (tracker.intervals, tracker.open_since)
    return state


def assert_equivalent(live, replayed):
    """Field-level equality of everything the figures are computed from."""
    assert set(replayed.records) == set(live.records)
    for address in live.records:
        assert record_state(replayed.records[address]) == record_state(
            live.records[address]
        ), "record mismatch for %s" % address
    assert [vars(s) for s in replayed.snapshots] == [
        vars(s) for s in live.snapshots
    ]
    assert replayed.block_arrivals == live.block_arrivals
    assert replayed.piece_completions == live.piece_completions
    assert replayed.choke_rounds == live.choke_rounds
    assert replayed.hash_failures == live.hash_failures
    assert replayed.seed_state_at == live.seed_state_at
    assert replayed.endgame_at == live.endgame_at
    assert replayed.messages_sent == live.messages_sent
    assert replayed.messages_received == live.messages_received
    assert replayed.fault_counters == live.fault_counters
    assert replayed.leecher_interval == live.leecher_interval
    assert replayed.seed_interval == live.seed_interval
    assert replayed.peer.address == live.peer.address


def assert_same_figures(live, replayed):
    """The offline replayer must reproduce the paper figures exactly."""
    assert asdict(summarize_entropy(replayed)) == asdict(summarize_entropy(live))
    assert asdict(replication_series(replayed)) == asdict(
        replication_series(live)
    )
    assert peer_set_series(replayed) == peer_set_series(live)
    assert leecher_contribution(replayed) == leecher_contribution(live)
    assert (
        unchoke_interest_correlation(replayed, state="leecher").unchoke_counts
        == unchoke_interest_correlation(live, state="leecher").unchoke_counts
    )
    for kind in ("piece", "block"):
        try:
            expected = interarrival_summary(live, kind=kind)
        except ValueError:
            with pytest.raises(ValueError):
                interarrival_summary(replayed, kind=kind)
            continue
        assert asdict(interarrival_summary(replayed, kind=kind)) == asdict(
            expected
        )


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_differential_replay(name, tmp_path):
    live, path = run_and_trace(name, tmp_path)
    replayed = replay_instrumentation(path)
    assert replayed.replayed_from_events > 0
    assert_equivalent(live, replayed)
    assert_same_figures(live, replayed)


#: A live swarm's trace around a reaped link: the ``fault`` line is what
#: ``NetPeer`` emits through ``PeerObserver.on_fault`` when a link dies
#: under a reset or a bad frame.  No simulated link fails, so only a
#: hand-built trace reaches this replay path.
FAULT_TRACE = [
    '{"type":"trace_start","v":1}',
    '{"t":0.0,"type":"attach","peer":"127.0.0.1:7001","pieces":4,"seed":false}',
    '{"t":0.0,"type":"attach","peer":"127.0.0.1:7002","pieces":4,"seed":true}',
    '{"t":1.5,"type":"fault","peer":"127.0.0.1:7001","kind":"connection_reaped"}',
    '{"t":2.0,"type":"fault","peer":"127.0.0.1:7002","kind":"connection_reaped"}',
    '{"t":4.25,"type":"fault","peer":"127.0.0.1:7001","kind":"connection_reaped"}',
]


def test_fault_events_replay_into_the_fault_counters(tmp_path):
    path = tmp_path / "live_faults.jsonl"
    path.write_text("\n".join(FAULT_TRACE) + "\n")
    assert trace_stats(str(path)).kinds["fault"] == 3
    first = replay_instrumentation(str(path), peer="127.0.0.1:7001")
    second = replay_instrumentation(str(path), peer="127.0.0.1:7002")
    assert first.fault_counters == {"connection_reaped": 2}
    assert second.fault_counters == {"connection_reaped": 1}


def test_replay_is_idempotent(tmp_path):
    live, path = run_and_trace("transient", tmp_path)
    first = replay_instrumentation(path)
    second = replay_instrumentation(path)
    assert_equivalent(first, second)
    assert [vars(s) for s in first.snapshots] == [vars(s) for s in second.snapshots]


def test_replay_from_recorder_object():
    spec = SCENARIOS["transient"]
    scenario = scaled_copy(
        scenario_by_id(spec["torrent_id"]), duration=spec["duration"]
    )
    recorder = TraceRecorder()
    harness = build_experiment(
        scenario, seed=spec["seed"], trace_recorder=recorder
    )
    live = harness.run()
    recorder.close()
    replayed = replay_instrumentation(recorder)
    assert_equivalent(live, replayed)


def test_event_types_the_reader_does_not_know_are_skipped(tmp_path):
    """A trace from a version that emitted ``playback`` events (the
    streaming runs did, after every in-order delivery) or ``stability``
    events (open-system runs did, per detector sample and at the end)
    still verifies, replays to the same figures as without them, and is
    counted."""
    spec = SCENARIOS["transient"]
    recorder = TraceRecorder()
    build_experiment(
        scaled_copy(scenario_by_id(spec["torrent_id"]), duration=200.0),
        seed=spec["seed"],
        trace_recorder=recorder,
    ).run()
    recorder.close()
    path = str(tmp_path / "with_dropped_types.jsonl")
    legacy = TraceRecorder(path)
    inserted = {"playback": 0, "stability": 0}
    for event in iter_trace(recorder):
        if event["type"] == "finalize":
            inserted["stability"] += 1
            legacy.emit(
                {
                    "t": event["t"],
                    "type": "stability",
                    "peer": event["peer"],
                    "kind": "finalize",
                    "data": {"stable": True, "samples": inserted["stability"]},
                }
            )
        legacy.emit(event)
        if event["type"] == "piece":
            inserted["playback"] += 1
            legacy.emit(
                {
                    "t": event["t"],
                    "type": "playback",
                    "peer": event["peer"],
                    "kind": "progress",
                    "data": {"pieces": inserted["playback"],
                             "bytes": 1024 * inserted["playback"],
                             "position": 0.0},
                }
            )
        elif event["type"] == "snapshot":
            inserted["stability"] += 1
            legacy.emit(
                {
                    "t": event["t"],
                    "type": "stability",
                    "peer": event["peer"],
                    "kind": "sample",
                    "data": {"seeds": 1, "leechers": 3, "rarest_copies": 1,
                             "mode_copies": 3, "mode_pieces": 40},
                }
            )
    legacy.close()
    assert min(inserted.values()) > 1
    extra = sum(inserted.values())

    assert len(iter_trace(path)) == len(iter_trace(recorder)) + extra
    expected = replay_instrumentation(recorder)
    replayed = replay_instrumentation(path)
    assert replayed.replayed_from_events == expected.replayed_from_events + extra
    assert_equivalent(expected, replayed)
    assert_same_figures(expected, replayed)
    kinds = trace_stats(path).kinds
    for kind, count in inserted.items():
        assert kinds.pop(kind) == count
    assert kinds == trace_stats(recorder).kinds
