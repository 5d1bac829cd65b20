"""Structured tracing: schema, determinism, and the no-perturbation
guarantee.

Four families of tests:

* **recorder unit behaviour** — header/footer framing, fingerprinting,
  closed-recorder errors, file and in-memory sinks producing identical
  bytes, and the hot-path ``emit_raw`` lines being exactly what the
  generic JSON encoder would emit;
* **determinism** — the same seeded experiment yields a byte-identical
  JSONL trace and fingerprint on every run;
* **no perturbation** — attaching tracing (fanned out next to the normal
  instrumentation, or swarm-wide) leaves the simulation's own event
  stream byte-identical to an untraced run;
* **integrity** — ``iter_trace`` detects tampering, and a
  trace whose writer crashed before writing the footer is still
  consumable and replayable.
"""

import gc
import hashlib
import json
import os
import subprocess
import sys

import pytest

import repro
from repro.instrumentation import (
    BinaryTraceRecorder,
    Instrumentation,
    TraceRecorder,
    TracingObserver,
    binary_to_jsonl,
    iter_trace,
    jsonl_to_binary,
    replay_instrumentation,
    traced_peers,
)
from repro.instrumentation.replay import TraceFormatError
from repro.sim.config import KIB, TRACKER_ANNOUNCE_SECONDS, SwarmConfig
from repro.sim.observer import FanoutObserver, PeerObserver
from repro.workloads import build_experiment, scaled_copy, scenario_by_id

from tests.conftest import fast_config, tiny_swarm


SRC = os.path.dirname(os.path.dirname(repro.__file__))


class TraceFingerprint(PeerObserver):
    """Hash every observable event at one peer into a digest."""

    def __init__(self):
        self._hash = hashlib.sha256()

    def _feed(self, *parts) -> None:
        self._hash.update(repr(parts).encode())

    def on_connection_open(self, now, remote, *flags):
        self._feed("open", now, remote)

    def on_connection_close(self, now, remote, up, down):
        self._feed("close", now, remote)

    def on_message_sent(self, now, remote, message):
        self._feed("sent", now, remote, type(message).__name__)

    def on_message_received(self, now, remote, message):
        self._feed("recv", now, remote, type(message).__name__)

    def on_choke_round(self, now, unchoked, local_seed):
        self._feed("choke", now, sorted(map(str, unchoked)))

    def on_block_received(self, now, remote, piece, offset, length):
        self._feed("block", now, piece, offset, length)

    def on_piece_completed(self, now, piece):
        self._feed("piece", now, piece)

    def digest(self) -> str:
        return self._hash.hexdigest()


def small_scenario(torrent_id=2, duration=250.0):
    return scaled_copy(scenario_by_id(torrent_id), duration=duration)


def run_traced(seed=11, path=None, duration=250.0, trace_all=False):
    recorder = TraceRecorder(path)
    harness = build_experiment(
        small_scenario(duration=duration),
        seed=seed,
        trace_recorder=recorder,
        trace_all_peers=trace_all,
    )
    harness.run()
    recorder.close()
    return recorder, harness


# ---------------------------------------------------------------------------
# recorder unit behaviour
# ---------------------------------------------------------------------------


def test_recorder_framing_and_fingerprint():
    recorder = TraceRecorder()
    recorder.emit({"t": 0.0, "type": "piece", "peer": "10.0.0.1", "piece": 3})
    fingerprint = recorder.close()
    lines = recorder.lines()
    header = json.loads(lines[0])
    footer = json.loads(lines[-1])
    assert header == {"type": "trace_start", "v": 1}
    assert footer["type"] == "trace_end"
    assert footer["events"] == 1
    assert footer["fingerprint"] == fingerprint
    assert len(fingerprint) == 64
    assert recorder.events_emitted == 1
    assert [event["type"] for event in recorder.events()] == ["piece"]


def test_recorder_close_is_idempotent_and_seals():
    recorder = TraceRecorder()
    first = recorder.close()
    assert recorder.close() == first
    with pytest.raises(RuntimeError):
        recorder.emit({"t": 0.0, "type": "piece", "peer": "p", "piece": 0})
    with pytest.raises(RuntimeError):
        recorder.emit_raw("{}")


def test_recorder_context_manager_closes():
    with TraceRecorder() as recorder:
        recorder.emit({"t": 1.0, "type": "endgame", "peer": "10.0.0.1"})
    assert recorder.fingerprint is not None


def test_file_and_memory_sinks_are_byte_identical(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    on_disk, _ = run_traced(seed=5, path=path, duration=150.0)
    in_memory, _ = run_traced(seed=5, path=None, duration=150.0)
    assert on_disk.lines() == in_memory.lines()
    assert on_disk.fingerprint == in_memory.fingerprint


@pytest.mark.parametrize("address", ['seed"1', "s\u00e9ed\\1"])
def test_addresses_render_as_json_encodes_them(address):
    # The hot-path renderers insert each address as json.dumps renders
    # it, so a quote, a backslash or a non-ASCII character still makes a
    # line the reader accepts and the generic encoder would have made.
    def run(recorder):
        swarm = tiny_swarm(num_pieces=6)
        swarm.add_peer(
            config=fast_config(), address=address, is_seed=True,
            observer=TracingObserver(recorder),
        )
        for index in range(3):
            # one traced peer (pairs) and two on their own hooks
            observer = TracingObserver(recorder) if index == 0 else None
            swarm.add_peer(config=fast_config(), observer=observer)
        swarm.run(60.0)
        recorder.close()
        return recorder

    recorder = run(TraceRecorder())
    events = iter_trace(recorder)
    assert {"msg_sent", "msg_recv", "block"} <= {event["type"] for event in events}
    assert address in {event["peer"] for event in events}
    assert address in {event.get("remote") for event in events}
    for line in recorder.lines():
        assert json.dumps(json.loads(line), separators=(",", ":")) == line
    # RBT1 renders the same lines, live and converted.
    assert binary_to_jsonl(run(BinaryTraceRecorder())) == recorder.lines()
    assert binary_to_jsonl(jsonl_to_binary(recorder)) == recorder.lines()


def test_file_bytes_before_the_footer_hash_to_the_fingerprint(tmp_path):
    path = tmp_path / "trace.jsonl"
    recorder, _ = run_traced(seed=5, path=str(path), duration=150.0, trace_all=True)
    data = path.read_bytes()
    body, footer = data[:-1].rsplit(b"\n", 1)
    assert json.loads(footer)["fingerprint"] == recorder.fingerprint
    assert hashlib.sha256(body + b"\n").hexdigest() == recorder.fingerprint


def emit_batches(recorder, count):
    """*count* events through emit, emit_raw and the pair path, crossing
    batch boundaries; returns the lines they make."""
    lines = []
    for index in range(count):
        event = {"t": float(index), "type": "piece", "peer": "10.0.0.1", "piece": index}
        if index % 3 == 0:
            recorder.emit(event)
            lines.append(json.dumps(event, separators=(",", ":")))
        elif index % 3 == 1:
            line = json.dumps(event, separators=(",", ":"))
            recorder.emit_raw(line)
            lines.append(line)
        else:
            recorder.emit_have_pair(float(index), "10.0.0.1", "10.0.0.2", index)
            lines.append(
                '{"t":%r,"type":"msg_sent","peer":"10.0.0.1","remote":"10.0.0.2",'
                '"msg":"Have","piece":%d}' % (float(index), index)
            )
            lines.append(
                '{"t":%r,"type":"msg_recv","peer":"10.0.0.2","remote":"10.0.0.1",'
                '"msg":"Have","piece":%d}' % (float(index), index)
            )
    return lines


@pytest.mark.parametrize("on_disk", [False, True])
def test_open_recorder_reads_back_every_line(tmp_path, on_disk):
    recorder = TraceRecorder(str(tmp_path / "open.jsonl") if on_disk else None)
    header = recorder.lines()
    assert [json.loads(line)["type"] for line in header] == ["trace_start"]
    expected = header + emit_batches(recorder, 2500)
    assert iter_trace(recorder) == [json.loads(line) for line in expected[1:]]
    assert recorder.lines() == expected
    assert recorder.events() == [json.loads(line) for line in expected[1:]]
    more = emit_batches(recorder, 10)
    assert recorder.lines() == expected + more
    recorder.close()
    assert recorder.lines()[:-1] == expected + more


def test_dropped_recorder_leaves_every_line_and_no_footer(tmp_path):
    path = str(tmp_path / "dropped.jsonl")
    recorder = TraceRecorder(path)
    lines = recorder.lines() + emit_batches(recorder, 1500)
    del recorder
    gc.collect()
    assert open(path).read().splitlines() == lines
    assert len(iter_trace(path)) == len(lines) - 1


def test_writer_killed_by_an_exception_reads_as_crashed(tmp_path):
    # The ``repro run --trace`` path when the run raises: the recorder is
    # never closed, and the interpreter exits on the exception.
    path = str(tmp_path / "crashed.jsonl")
    script = (
        "from repro.instrumentation import TraceRecorder\n"
        "recorder = TraceRecorder(%r)\n"
        "for index in range(1500):\n"
        "    recorder.emit_have_pair(1.0, '10.0.0.1', '10.0.0.2', index)\n"
        "raise RuntimeError('the run failed')\n" % path
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert "the run failed" in result.stderr
    lines = open(path).read().splitlines()
    assert len(lines) == 1 + 3000
    assert "trace_end" not in lines[-1]
    assert len(iter_trace(path)) == 3000


def test_raw_lines_match_generic_json_encoding():
    # The hot-path emit_raw must produce exactly what json.dumps would,
    # so that consumers can't tell which encoder wrote a line.
    recorder, _ = run_traced(seed=11, duration=150.0)
    for line in recorder.lines():
        event = json.loads(line)
        assert json.dumps(event, separators=(",", ":")) == line


def test_events_carry_schema_required_fields():
    recorder, harness = run_traced(seed=11, duration=150.0)
    events = recorder.events()
    assert events, "expected a non-trivial trace"
    for event in events:
        assert set(("t", "type", "peer")) <= set(event)
    assert events[0]["type"] == "attach"
    assert events[-1]["type"] == "finalize"
    assert {event["peer"] for event in events} == {harness.local_peer.address}


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_same_seed_yields_byte_identical_trace():
    first, _ = run_traced(seed=11)
    second, _ = run_traced(seed=11)
    assert first.lines() == second.lines()
    assert first.fingerprint == second.fingerprint


def test_different_seeds_yield_different_traces():
    first, _ = run_traced(seed=11)
    second, _ = run_traced(seed=12)
    assert first.fingerprint != second.fingerprint


def test_swarm_wide_trace_is_deterministic():
    first, _ = run_traced(seed=11, duration=150.0, trace_all=True)
    second, _ = run_traced(seed=11, duration=150.0, trace_all=True)
    assert first.lines() == second.lines()
    assert first.fingerprint == second.fingerprint


# ---------------------------------------------------------------------------
# no perturbation
# ---------------------------------------------------------------------------


def fingerprinted_swarm(seed, attach_tracer):
    """A tiny swarm whose local peer hashes every observable event;
    optionally a TracingObserver rides along via fan-out."""
    swarm = tiny_swarm(
        num_pieces=12,
        seed=seed,
        swarm_config=SwarmConfig(seed=seed, snapshot_interval=5.0),
    )
    swarm.add_peer(config=fast_config(), is_seed=True)
    fingerprint = TraceFingerprint()
    recorder = None
    if attach_tracer:
        recorder = TraceRecorder()
        observer = FanoutObserver(fingerprint, TracingObserver(recorder))
    else:
        observer = fingerprint
    swarm.add_peer(config=fast_config(upload=4 * KIB), observer=observer)
    for __ in range(4):
        swarm.add_peer(config=fast_config(upload=2 * KIB))
    swarm.run(400.0)
    return fingerprint.digest(), recorder


def test_tracing_does_not_perturb_the_simulation():
    # The engine-event fingerprint of a traced run must be byte-identical
    # to the untraced baseline: tracing draws no randomness, schedules no
    # events, and mutates no simulation state.
    untraced, _ = fingerprinted_swarm(seed=21, attach_tracer=False)
    traced, recorder = fingerprinted_swarm(seed=21, attach_tracer=True)
    assert traced == untraced
    assert recorder.events_emitted > 0


def test_tracing_disabled_runs_reproduce_each_other():
    first, _ = fingerprinted_swarm(seed=21, attach_tracer=False)
    second, _ = fingerprinted_swarm(seed=21, attach_tracer=False)
    assert first == second


@pytest.mark.parametrize("trace_all", [False, True], ids=["local", "every-peer"])
def test_traced_experiment_outcome_matches_untraced(trace_all):
    plain = build_experiment(small_scenario(), seed=11)
    plain_trace = plain.run()
    recorder, harness = run_traced(seed=11, trace_all=trace_all)
    traced_trace = harness.instrumentation
    assert traced_trace.peer.bitfield.count == plain_trace.peer.bitfield.count
    assert traced_trace.seed_state_at == plain_trace.seed_state_at
    assert traced_trace.piece_completions == plain_trace.piece_completions
    assert [vars(s) for s in traced_trace.snapshots] == [
        vars(s) for s in plain_trace.snapshots
    ]


# ---------------------------------------------------------------------------
# announce tracing (gated by SwarmConfig.trace_announces)
# ---------------------------------------------------------------------------


def announce_traced_swarm(seed=13, trace_announces=False):
    swarm = tiny_swarm(
        num_pieces=12,
        seed=seed,
        swarm_config=SwarmConfig(
            seed=seed,
            snapshot_interval=5.0,
            trace_announces=trace_announces,
        ),
    )
    swarm.add_peer(config=fast_config(), is_seed=True)
    recorder = TraceRecorder()
    instrumentation = Instrumentation()
    swarm.add_peer(
        config=fast_config(upload=4 * KIB),
        observer=FanoutObserver(instrumentation, TracingObserver(recorder)),
    )
    for __ in range(3):
        swarm.add_peer(config=fast_config(upload=2 * KIB))
    # Long enough for every peer's first periodic announce.
    swarm.run(TRACKER_ANNOUNCE_SECONDS + 60.0)
    recorder.close()
    return swarm, recorder, instrumentation


def test_announce_events_off_by_default():
    __, recorder, instrumentation = announce_traced_swarm()
    assert not [e for e in recorder.events() if e["type"] == "announce"]
    assert instrumentation.announce_events == []


def test_announce_events_recorded_when_enabled():
    swarm, recorder, instrumentation = announce_traced_swarm(
        trace_announces=True
    )
    events = [e for e in recorder.events() if e["type"] == "announce"]
    assert events
    kinds = {e["kind"] for e in events}
    assert {"started", "interval"} <= kinds
    for event in events:
        data = event["data"]
        assert data["peer"] == event["peer"]
        assert 0 <= data["returned"] <= data["num_want"]
        assert data["attempt"] >= 0
    assert instrumentation.announce_events
    assert instrumentation.metrics.value("announce.started") >= 1


def test_announce_tracing_does_not_perturb_the_run():
    # The gate's contract: turning announce tracing on adds announce
    # events to the trace and changes NOTHING else — the remaining
    # event stream is byte-identical (the flag draws no randomness and
    # schedules nothing).
    __, recorder_off, __i = announce_traced_swarm(trace_announces=False)
    __, recorder_on, __j = announce_traced_swarm(trace_announces=True)
    lines_off = recorder_off.lines()[1:-1]
    lines_on = [
        line
        for line in recorder_on.lines()[1:-1]
        if '"type":"announce"' not in line
    ]
    assert lines_on == lines_off


def test_announce_events_replay_into_instrumentation():
    __, recorder, live = announce_traced_swarm(trace_announces=True)
    replayed = replay_instrumentation(recorder.lines())
    assert replayed.announce_events == live.announce_events
    assert replayed.metrics.value("announce.started") == live.metrics.value(
        "announce.started"
    )


# ---------------------------------------------------------------------------
# integrity
# ---------------------------------------------------------------------------


def test_iter_trace_detects_tampering(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    run_traced(seed=5, path=path, duration=150.0)
    lines = open(path).read().splitlines()
    doctored = list(lines)
    victim = json.loads(doctored[3])
    victim["t"] = victim["t"] + 1.0
    doctored[3] = json.dumps(victim, separators=(",", ":"))
    tampered = str(tmp_path / "tampered.jsonl")
    with open(tampered, "w") as handle:
        handle.write("\n".join(doctored) + "\n")
    with pytest.raises(TraceFormatError):
        iter_trace(tampered)
    # verify=False skips the fingerprint check for forensic reads.
    assert iter_trace(tampered, verify=False)


def test_iter_trace_rejects_wrong_schema_version(tmp_path):
    path = str(tmp_path / "bad.jsonl")
    with open(path, "w") as handle:
        handle.write('{"type":"trace_start","v":999}\n')
        handle.write('{"t":0.0,"type":"endgame","peer":"p"}\n')
    with pytest.raises(TraceFormatError):
        iter_trace(path)


@pytest.mark.parametrize("stray", ["[1,2]", "3"])
def test_iter_trace_rejects_a_line_that_is_not_an_object(stray):
    # Valid JSON, wrong shape: used to be an AttributeError on .get.
    lines = [
        '{"type":"trace_start","v":1}',
        '{"t":0.0,"type":"endgame","peer":"p"}',
        stray,
    ]
    with pytest.raises(TraceFormatError, match="line 3 is not a JSON object"):
        iter_trace(lines)
    with pytest.raises(TraceFormatError, match="line 1 is not a JSON object"):
        iter_trace([stray] + lines)


def test_replay_names_the_event_that_lacks_a_field():
    # Used to be a bare KeyError: 't'.
    lines = [
        '{"type":"trace_start","v":1}',
        '{"t":0.0,"type":"attach","peer":"p","pieces":4,"seed":false}',
        '{"type":"piece","peer":"p"}',
    ]
    with pytest.raises(
        TraceFormatError, match="piece event 2 of peer p has no field 't'"
    ):
        replay_instrumentation(lines)
    with pytest.raises(TraceFormatError, match="piece event 2 of peer p"):
        replay_instrumentation(lines, peer="p")


def test_trace_without_footer_survives_writer_crash(tmp_path):
    # A crashed writer leaves JSONL lines on disk but no trace_end
    # footer; the reader must still parse, list peers and replay.
    path = str(tmp_path / "crashed.jsonl")
    recorder, harness = run_traced(seed=11, path=path, duration=250.0)
    full = open(path).read().splitlines()
    truncated = str(tmp_path / "truncated.jsonl")
    with open(truncated, "w") as handle:
        handle.write("\n".join(full[:-1]) + "\n")  # drop the footer
    events = iter_trace(truncated)
    assert events == recorder.events()
    assert traced_peers(truncated) == [harness.local_peer.address]
    replayed = replay_instrumentation(truncated)
    assert isinstance(replayed, Instrumentation)
    assert replayed.piece_completions == harness.instrumentation.piece_completions
