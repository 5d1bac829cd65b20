"""The streaming trace reader held to the list-building oracle.

``repro.instrumentation.replay.stream_trace`` is the only code in
``src/`` that opens, decodes and verifies a trace.  Three families:

* **differential** — ``list(stream_trace(s))`` equals
  ``tests.reference_trace_reader.reference_iter_trace(s)`` (the reader it
  replaced), or both raise ``TraceFormatError`` with the same message:
  over every source kind, over Hypothesis mutations of a real trace, at
  every batch size that puts a boundary on the footer or the last event,
  and — for the per-peer pre-filter — over every address a swarm-wide
  trace mentions, including the corners where a text search could go
  wrong (prefix addresses, remote-only peers, spaced separators);
* **laziness and memory** — the first ``next()`` pulls one batch, a
  one-peer replay peaks far below the event list, and streaming skips no
  verification;
* **hostile input** — bytes that are not UTF-8, nesting deep enough to
  exhaust the C scanner's recursion.
"""

import hashlib
import json
import tracemalloc
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.instrumentation import (
    TraceRecorder,
    iter_trace,
    jsonl_to_binary,
    replay_instrumentation,
    stream_trace,
    traced_peers,
)
from repro.instrumentation import replay
from repro.instrumentation.replay import TraceFormatError
from repro.workloads import build_experiment, scaled_copy, scenario_by_id

from tests.reference_trace_reader import reference_iter_trace
from tests.test_trace_replay import assert_equivalent

HEADER = '{"type":"trace_start","v":1}'


def seal(lines, spaced=False):
    """*lines* (header + events) with the footer a recorder would write;
    ``spaced`` writes it with ``json.dumps`` default separators."""
    digest = hashlib.sha256(("\n".join(lines) + "\n").encode("utf-8")).hexdigest()
    footer = {"type": "trace_end", "events": len(lines) - 1, "fingerprint": digest}
    separators = None if spaced else (",", ":")
    return list(lines) + [json.dumps(footer, separators=separators)]


def outcome(reader, source, **kwargs):
    """What a reader made of *source*: its events or its complaint."""
    try:
        return "events", list(reader(source, **kwargs))
    except TraceFormatError as exc:
        return "error", str(exc)


def batch_lines(size):
    return mock.patch.object(replay, "_BATCH_LINES", size)


@pytest.fixture(scope="module")
def swarm_trace(tmp_path_factory):
    """Table-I torrent 13 (over 40 peers, so ``10.0.0.4`` and
    ``10.0.0.40`` both exist) with every peer traced to disk."""
    path = str(tmp_path_factory.mktemp("stream") / "swarm.jsonl")
    recorder = TraceRecorder(path)
    harness = build_experiment(
        scaled_copy(scenario_by_id(13), duration=40.0),
        seed=5,
        trace_recorder=recorder,
        trace_all_peers=True,
    )
    harness.run()
    recorder.close()
    lines = recorder.lines()
    assert len(lines) - 2 >= 30000, "sized for the memory test below"
    return path, lines, harness


@pytest.fixture(scope="module")
def short_lines(swarm_trace):
    """A sealed 240-event cut of the swarm trace: small enough to mutate
    a few hundred times."""
    _, lines, _ = swarm_trace
    return seal(lines[:241])


# ---------------------------------------------------------------------------
# differential: sources
# ---------------------------------------------------------------------------


def test_every_source_kind_reads_like_the_oracle(swarm_trace, tmp_path):
    path, lines, _ = swarm_trace
    expected = reference_iter_trace(path)
    assert len(expected) == len(lines) - 2
    assert list(stream_trace(path)) == expected
    assert iter_trace(path) == expected
    # a plain iterable, newline-terminated or not, consumed once
    assert list(stream_trace(iter(lines))) == expected
    assert list(stream_trace(line + "\n" for line in lines)) == expected
    # RBT1: binary_to_jsonl's lines feed the same stream
    binary = str(tmp_path / "swarm.rbt")
    jsonl_to_binary(path, binary)
    assert list(stream_trace(binary)) == expected == reference_iter_trace(binary)


def test_recorder_sources_closed_and_unclosed(short_lines, tmp_path):
    events = [json.loads(line) for line in short_lines[1:-1]]
    for path in (None, str(tmp_path / "recorded.jsonl")):
        recorder = TraceRecorder(path)
        for event in events[:100]:
            recorder.emit(event)
        # an unclosed recorder reads back what it emitted so far
        assert list(stream_trace(recorder)) == events[:100]
        assert reference_iter_trace(recorder) == events[:100]
        for event in events[100:]:
            recorder.emit(event)
        recorder.close()
        assert list(stream_trace(recorder)) == events
        assert reference_iter_trace(recorder) == events


# ---------------------------------------------------------------------------
# differential: mutations
# ---------------------------------------------------------------------------

STRAY_LINES = st.sampled_from(
    [
        "[1,2]",
        "3",
        '"text"',
        "null",
        "1,2",  # two values once joined into a batch, invalid alone
        '{"a":1},{"b":2}',
        "{",
        "}",
        "  ",
        '{"t":0.0,"type":"piece","peer":"p","piece":1}',
    ]
)
PRINTABLE = st.sampled_from([chr(code) for code in range(0x20, 0x7F)] + ["\n"])


@st.composite
def mutations(draw):
    kind = draw(
        st.sampled_from(
            ["none", "drop_footer", "truncate", "flip", "blank", "footer_copy", "stray"]
        )
    )
    return kind, draw(st.floats(0.0, 1.0, exclude_max=True)), draw(
        STRAY_LINES if kind == "stray" else PRINTABLE
    )


def mutate(lines, mutation):
    """The text of *lines* after one mutation ``(kind, where, what)``."""
    kind, where, what = mutation
    lines = list(lines)
    text = "\n".join(lines) + "\n"
    if kind == "drop_footer":
        return "\n".join(lines[:-1]) + "\n"
    if kind == "truncate":
        return text[: int(where * len(text))]
    if kind == "flip":
        at = int(where * len(text))
        return text[:at] + what + text[at + 1 :]
    at = int(where * (len(lines) + 1))
    if kind == "blank":
        lines[at:at] = ["", ""]
    elif kind == "footer_copy":
        lines.insert(at, lines[-1])
    elif kind == "stray":
        lines.insert(at, what)
    return "\n".join(lines) + "\n"


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    mutation=mutations(),
    size=st.sampled_from([1, 2, 3, 7, 64, 1024]),
    verify=st.booleans(),
)
def test_mutated_traces_read_or_fail_like_the_oracle(
    short_lines, tmp_path, mutation, size, verify
):
    path = str(tmp_path / "mutated.jsonl")
    with open(path, "w") as handle:
        handle.write(mutate(short_lines, mutation))
    expected = outcome(reference_iter_trace, path, verify=verify)
    with batch_lines(size):
        assert outcome(stream_trace, path, verify=verify) == expected
        with open(path) as handle:
            assert outcome(stream_trace, handle, verify=verify) == expected


def test_batch_boundaries_on_header_footer_and_last_event(short_lines):
    events = len(short_lines) - 2
    expected = reference_iter_trace(short_lines)
    tampered = list(short_lines)
    tampered[-2] = tampered[-2].replace('"t":', '"t" :')
    failure = outcome(reference_iter_trace, tampered)
    assert failure[0] == "error"
    # size 1: the first batch ends right behind the header; events - 1 /
    # events / events + 1: a batch ends before the last event, on it (the
    # footer opens a batch of its own), on the footer.
    for size in (1, events - 1, events, events + 1, events + 2):
        with batch_lines(size):
            assert list(stream_trace(short_lines)) == expected
            assert list(stream_trace(short_lines[:-1])) == expected
            assert outcome(stream_trace, tampered) == failure


def test_lines_after_the_footer_are_not_part_of_the_trace(short_lines):
    trailing = short_lines + ["not json at all", "[1,2]"]
    expected = reference_iter_trace(trailing)
    for size in (4, 1024):
        with batch_lines(size):
            assert list(stream_trace(trailing)) == expected


def test_error_names_the_line_counting_non_blank_lines(short_lines):
    lines = list(short_lines)
    lines[100] = lines[100][:-1]  # unbalanced
    lines[50:50] = ["", ""]
    for size in (7, 1024):
        with batch_lines(size):
            with pytest.raises(TraceFormatError, match="line 101 is not valid JSON"):
                list(stream_trace(lines))


# ---------------------------------------------------------------------------
# differential: the per-peer pre-filter
# ---------------------------------------------------------------------------


def mentioned_addresses(events):
    addresses = set()
    for event in events:
        addresses.add(event["peer"])
        if "remote" in event:
            addresses.add(event["remote"])
        addresses.update(event.get("unchoked", ()))
    return sorted(addresses)


def test_peer_stream_is_the_oracle_filtered_on_the_peer_field(swarm_trace):
    path, _, _ = swarm_trace
    events = reference_iter_trace(path)
    addresses = mentioned_addresses(events)
    assert "10.0.0.4" in addresses and "10.0.0.40" in addresses
    for address in addresses:
        assert list(stream_trace(path, peer=address)) == [
            event for event in events if event["peer"] == address
        ], address


def test_replay_of_every_traced_peer_equals_replay_of_oracle_events(swarm_trace):
    path, _, harness = swarm_trace
    events = reference_iter_trace(path)
    peers = traced_peers(path)
    assert len(peers) > 40 and harness.local_peer.address in peers
    for address in peers:
        # The reference side never searches text: the oracle's decoded
        # events, selected on their field, replayed with no peer named.
        own = [HEADER] + [
            json.dumps(event) for event in events if event["peer"] == address
        ]
        expected = replay_instrumentation(own)
        replayed = replay_instrumentation(path, peer=address)
        assert replayed.replayed_from_events == len(own) - 1 > 0
        assert_equivalent(expected, replayed)
    live = harness.instrumentation
    assert_equivalent(live, replay_instrumentation(path, peer=live.peer.address))


def test_peer_named_only_as_remote_or_in_unchoked_lists_has_no_events():
    recorder = TraceRecorder()
    harness = build_experiment(
        scaled_copy(scenario_by_id(2), duration=250.0),
        seed=11,
        trace_recorder=recorder,
    )
    harness.run()
    recorder.close()
    local = harness.local_peer.address
    events = reference_iter_trace(recorder)
    others = [a for a in mentioned_addresses(events) if a != local]
    assert any(other in event.get("unchoked", ()) for event in events for other in others)
    for other in others:
        assert list(stream_trace(recorder, peer=other)) == []
        with pytest.raises(TraceFormatError, match="no events of peer"):
            replay_instrumentation(recorder, peer=other)
    assert list(stream_trace(recorder, peer=local)) == events


def test_filter_does_not_depend_on_the_compact_writer(swarm_trace):
    path, lines, harness = swarm_trace
    spaced = seal([json.dumps(json.loads(line)) for line in lines[:-1]], spaced=True)
    assert '"peer": "' in spaced[1] and '"type": "trace_end"' in spaced[-1]
    events = reference_iter_trace(spaced)
    assert events == reference_iter_trace(path)
    for address in ("10.0.0.4", "10.0.0.40", harness.local_peer.address):
        own = [event for event in events if event["peer"] == address]
        assert own and list(stream_trace(spaced, peer=address)) == own
        assert_equivalent(
            replay_instrumentation(path, peer=address),
            replay_instrumentation(spaced, peer=address),
        )
    # the spaced footer is still found (and still checked) under the filter
    spaced[5] = spaced[5].replace("0.0", "0.5", 1)
    with pytest.raises(TraceFormatError, match="fingerprint mismatch"):
        list(stream_trace(spaced, peer="10.0.0.4"))


def test_address_json_would_escape_is_matched_after_decoding():
    peer = 'café "7"'
    lines = seal(
        [HEADER]
        + [
            json.dumps(event, separators=(",", ":"), ensure_ascii=ascii_only)
            for ascii_only in (True, False)
            for event in (
                {"t": 0.0, "type": "attach", "peer": peer, "pieces": 4, "seed": False},
                {"t": 1.0, "type": "piece", "peer": "other", "piece": 0},
                {"t": 2.0, "type": "piece", "peer": peer, "piece": 1},
            )
        ]
    )
    events = reference_iter_trace(lines)
    assert list(stream_trace(lines, peer=peer)) == [
        event for event in events if event["peer"] == peer
    ]
    assert replay_instrumentation(lines, peer=peer).replayed_from_events == 4


# ---------------------------------------------------------------------------
# laziness and memory
# ---------------------------------------------------------------------------


def test_first_event_costs_at_most_one_batch(swarm_trace):
    _, lines, _ = swarm_trace
    pulled = [0]

    def counting():
        for line in lines:
            pulled[0] += 1
            yield line

    stream = stream_trace(counting())
    assert pulled[0] == 0
    first = next(stream)
    assert first == json.loads(lines[1])
    assert pulled[0] <= replay._BATCH_LINES + 1 < len(lines) // 10
    stream.close()


def traced_peak(function, *args, **kwargs):
    tracemalloc.start()
    try:
        function(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_one_peer_replay_peaks_far_below_the_event_list(swarm_trace):
    path, _, harness = swarm_trace
    local = harness.local_peer.address
    list_peak = traced_peak(iter_trace, path)
    replay_peak = traced_peak(replay_instrumentation, path, peer=local)
    assert replay_peak < list_peak / 4, (replay_peak, list_peak)


def test_streaming_replay_skips_no_verification(swarm_trace, tmp_path):
    path, lines, harness = swarm_trace
    local = harness.local_peer.address
    # Edit a line of *another* peer: the filtered read never decodes it,
    # and still has to notice.
    victim = next(
        index
        for index, line in enumerate(lines)
        if index > len(lines) // 2 and '"%s"' % local not in line
    )
    doctored = list(lines)
    doctored[victim] = doctored[victim].replace('"t":', '"t": ', 1)
    tampered = str(tmp_path / "tampered.jsonl")
    with open(tampered, "w") as handle:
        handle.write("\n".join(doctored) + "\n")
    for peer in (local, None):
        result = None
        with pytest.raises(TraceFormatError, match="fingerprint mismatch"):
            result = replay_instrumentation(tampered, peer=peer)
        assert result is None
    assert replay_instrumentation(tampered, peer=local, verify=False).records
    del doctored[victim]
    with pytest.raises(TraceFormatError, match="footer says"):
        replay_instrumentation(doctored, peer=local)


# ---------------------------------------------------------------------------
# hostile input
# ---------------------------------------------------------------------------


def test_bytes_that_are_not_utf8_are_a_format_error(short_lines, tmp_path):
    data = ("\n".join(short_lines) + "\n").encode("utf-8")
    inside_a_string = data.index(b'"type":"attach"') + 9
    between_tokens = data.index(b',"type":"attach"')
    for at, message in (
        (inside_a_string, "fingerprint mismatch"),
        (between_tokens, "is not valid JSON"),
    ):
        path = str(tmp_path / ("bad-%d.jsonl" % at))
        with open(path, "wb") as handle:
            handle.write(data[:at] + b"\xff" + data[at + 1 :])
        with pytest.raises(TraceFormatError, match=message):
            list(stream_trace(path))


def test_nesting_beyond_the_recursion_limit_is_a_format_error(short_lines):
    lines = list(short_lines)
    lines[3] = "[" * 100000
    with pytest.raises(TraceFormatError, match="line 4 is not valid JSON"):
        list(stream_trace(lines))
