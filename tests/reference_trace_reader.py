"""The list-building trace reader, kept as the differential oracle.

This is ``repro.instrumentation.replay.iter_trace`` as it stood before
the streaming reader replaced it: every line in a list, a filtered copy,
one ``json.loads`` call and two hasher updates per line.  It is slow and
holds the whole trace, and it is obviously right — which is what
``tests/test_trace_stream.py`` needs to hold ``stream_trace`` to.  The
one behavioural addition is the hostile-input fix both readers share: a
line that is valid JSON but not an object is a ``TraceFormatError``, not
an ``AttributeError``.

Lives in the test tree on purpose: nothing under ``src/`` may import it.
"""

import hashlib
import json
from typing import List, Optional

from repro.instrumentation.bintrace import binary_to_jsonl
from repro.instrumentation.replay import TraceFormatError
from repro.instrumentation.trace import TRACE_SCHEMA_VERSION, TraceRecorder


def reference_iter_trace(source, verify: bool = True) -> List[dict]:
    """Parse a trace into its event list (header/footer stripped)."""
    if isinstance(source, TraceRecorder):
        lines = source.lines()
    elif isinstance(source, str):
        with open(source, "rb") as handle:
            head = handle.read(4)
        if head == b"RBT1":
            lines = binary_to_jsonl(source)
        else:
            with open(source) as handle:
                lines = [line.rstrip("\n") for line in handle]
    else:
        lines = [line.rstrip("\n") for line in source]
    lines = [line for line in lines if line]
    if not lines:
        raise TraceFormatError("empty trace")

    hasher = hashlib.sha256()
    events: List[dict] = []
    footer: Optional[dict] = None
    for index, line in enumerate(lines):
        try:
            event = json.loads(line)
        except ValueError:
            raise TraceFormatError("line %d is not valid JSON" % (index + 1))
        if not isinstance(event, dict):
            raise TraceFormatError("line %d is not a JSON object" % (index + 1))
        kind = event.get("type")
        if index == 0:
            if kind != "trace_start":
                raise TraceFormatError("missing trace_start header")
            if verify and event.get("v") != TRACE_SCHEMA_VERSION:
                raise TraceFormatError(
                    "trace schema v%s, reader supports v%d"
                    % (event.get("v"), TRACE_SCHEMA_VERSION)
                )
            hasher.update(line.encode("utf-8"))
            hasher.update(b"\n")
            continue
        if kind == "trace_end":
            footer = event
            break
        hasher.update(line.encode("utf-8"))
        hasher.update(b"\n")
        events.append(event)
    if verify and footer is not None:
        if footer.get("events") != len(events):
            raise TraceFormatError(
                "footer says %s events, found %d" % (footer.get("events"), len(events))
            )
        digest = hasher.hexdigest()
        if footer.get("fingerprint") != digest:
            raise TraceFormatError("trace fingerprint mismatch (file edited?)")
    return events
