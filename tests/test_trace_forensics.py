"""``repro trace diff`` / ``repro trace stats``: forensics on the stream.

Unit tests on hand-written traces for the four shapes a comparison can
take (identical, divergence at event 0, mid-file, one trace a strict
prefix of the other), the exit codes the CI lane relies on, both
container formats, and the single-pass property that keeps memory
bounded by the context size.
"""

import json
from collections import Counter

import pytest

from repro.cli import main
from repro.instrumentation import (
    TraceRecorder,
    diff_traces,
    jsonl_to_binary,
    trace_stats,
)


def piece_events(count, peer="10.0.0.1"):
    return [
        {"t": float(index), "type": "piece", "peer": peer, "piece": index}
        for index in range(count)
    ]


def lines_of(events):
    recorder = TraceRecorder()
    for event in events:
        recorder.emit(event)
    recorder.close()
    return recorder.lines()


def write_trace(path, events, footer=True):
    lines = lines_of(events)
    if not footer:  # a writer that died before sealing the file
        del lines[-1]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_identical_traces():
    events = piece_events(10)
    diff = diff_traces(lines_of(events), lines_of(events))
    assert diff.identical and diff.index is None
    assert diff.events == (10, 10) and diff.kind_delta == {}
    assert diff.left == diff.right == []


def test_divergence_at_event_zero():
    left, right = piece_events(5), piece_events(5)
    right[0]["piece"] = 99
    diff = diff_traces(lines_of(left), lines_of(right), context=2)
    assert diff.index == 0 and diff.before == []
    assert diff.left == left[:3] and diff.right == right[:3]
    assert diff.events == (5, 5) and diff.kind_delta == {}


def test_divergence_mid_file_with_context_and_kind_delta():
    left = piece_events(20)
    right = piece_events(20)
    right[12] = {"t": 12.0, "type": "endgame", "peer": "10.0.0.1"}
    right.append({"t": 20.0, "type": "endgame", "peer": "10.0.0.1"})
    diff = diff_traces(lines_of(left), lines_of(right), context=3)
    assert diff.index == 12
    assert diff.before == left[9:12]
    assert diff.left == left[12:16] and diff.right == right[12:16]
    assert diff.events == (20, 21)
    assert diff.kind_delta == {"endgame": 2, "piece": -1}
    # context 0: the diverging event of each side and nothing else
    bare = diff_traces(lines_of(left), lines_of(right), context=0)
    assert bare.before == [] and bare.left == [left[12]] and bare.right == [right[12]]


@pytest.mark.parametrize("shorter", ["left", "right"])
def test_strict_prefix(shorter):
    full, prefix = piece_events(9), piece_events(6)
    pair = (prefix, full) if shorter == "left" else (full, prefix)
    diff = diff_traces(lines_of(pair[0]), lines_of(pair[1]), context=2)
    assert diff.index == 6 and diff.before == full[4:6]
    ended, continued = (
        (diff.left, diff.right) if shorter == "left" else (diff.right, diff.left)
    )
    assert ended == [] and continued == full[6:9]
    sign = 1 if shorter == "left" else -1
    assert diff.kind_delta == {"piece": 3 * sign}


def test_diff_is_one_pass_over_each_stream():
    # Generators cannot be rewound: a diff that went over either side a
    # second time (to count kinds, say) would find it empty.
    events = piece_events(5000)
    other = list(events)
    other[4000] = {"t": 0.0, "type": "endgame", "peer": "10.0.0.1"}
    diff = diff_traces(iter(lines_of(events)), iter(lines_of(other)), context=1)
    assert diff.index == 4000 and len(diff.before) == 1
    assert len(diff.left) == len(diff.right) == 2
    assert diff.events == (5000, 5000)


def test_stats_counts_kinds_peers_and_span():
    events = piece_events(4, peer="10.0.0.1") + [
        {"t": 9.5, "type": "endgame", "peer": "10.0.0.2"},
        {"t": 2.0, "type": "piece", "peer": "10.0.0.2", "piece": 1},
    ]
    stats = trace_stats(lines_of(events))
    assert stats.events == 6
    assert stats.kinds == {"piece": 5, "endgame": 1}
    assert stats.peers == {"10.0.0.1": 4, "10.0.0.2": 2}
    assert stats.span == (0.0, 9.5)
    assert trace_stats(lines_of([])).span is None


def test_stats_survive_fields_of_the_wrong_type():
    lines = [
        '{"type":"trace_start","v":1}',
        '{"t":"soon","type":["x"],"peer":{"a":1}}',
        '{"t":1}',
    ]
    stats = trace_stats(lines)
    assert stats.events == 2 and stats.span == (1, 1)
    assert stats.kinds == {"['x']": 1, "None": 1}


# ---------------------------------------------------------------------------
# the CLI: output and exit codes
# ---------------------------------------------------------------------------


def test_cli_diff_exit_codes_and_output(tmp_path, capsys):
    events = piece_events(30)
    other = list(events)
    other[17] = {"t": 17.0, "type": "endgame", "peer": "10.0.0.1"}
    a = write_trace(tmp_path / "a.jsonl", events)
    same = write_trace(tmp_path / "same.jsonl", events)
    b = write_trace(tmp_path / "b.jsonl", other)

    assert main(["trace", "diff", a, same]) == 0
    assert "identical: 30 events" in capsys.readouterr().out

    assert main(["trace", "diff", a, b, "--context", "2"]) == 1
    out = capsys.readouterr().out
    assert "traces diverge at event 17" in out
    assert "[15] " + json.dumps(events[15], separators=(",", ":")) in out
    assert "> [17] " + json.dumps(other[17], separators=(",", ":")) in out
    assert "[19] " in out and "[20] " not in out and "[14] " not in out
    assert "endgame      +1" in out and "piece        -1" in out

    prefix = write_trace(tmp_path / "prefix.jsonl", events[:10], footer=False)
    assert main(["trace", "diff", a, prefix]) == 1
    assert "> [10] (trace ends here)" in capsys.readouterr().out


def test_cli_reads_rbt1_beside_jsonl(tmp_path, capsys):
    events = piece_events(12)
    jsonl = write_trace(tmp_path / "t.jsonl", events)
    binary = str(tmp_path / "t.rbt")
    jsonl_to_binary(jsonl, binary)
    assert main(["trace", "diff", jsonl, binary]) == 0
    capsys.readouterr()
    assert main(["trace", "stats", binary]) == 0
    out = capsys.readouterr().out
    assert "12 events from 1 peers" in out
    assert "simulated time 0.0 .. 11.0" in out
    assert Counter(out.split())["12"] >= 3  # total, the kind row, the peer row


def test_cli_reports_an_unreadable_trace_with_exit_2(tmp_path, capsys):
    path = write_trace(tmp_path / "t.jsonl", piece_events(5))
    text = (tmp_path / "t.jsonl").read_text().replace('"piece":3', '"piece":4')
    tampered = tmp_path / "tampered.jsonl"
    tampered.write_text(text)
    # stats verifies; diff has to be able to look at an edited file
    assert main(["trace", "stats", str(tampered)]) == 2
    assert "fingerprint mismatch" in capsys.readouterr().err
    assert main(["trace", "diff", path, str(tampered)]) == 1
    assert "traces diverge at event 3" in capsys.readouterr().out
    garbled = tmp_path / "garbled.jsonl"
    garbled.write_text(text.replace('{"t":2.0', '{"t":2.0,,'))
    assert main(["trace", "diff", path, str(garbled)]) == 2
    assert "line 4 is not valid JSON" in capsys.readouterr().err
