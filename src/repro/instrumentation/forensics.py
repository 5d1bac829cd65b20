"""Trace forensics on the streaming reader.

Every determinism guarantee in this repository is a fingerprint, and a
fingerprint mismatch says only that two hashes differ.
:func:`diff_traces` says *where*: the first event at which two traces
part, with a few events of context from each side and the per-kind count
delta.  :func:`trace_stats` says what one trace holds.  Both are single
passes over :func:`~repro.instrumentation.replay.stream_trace`, so their
memory is bounded by the context size and the number of distinct kinds
and peers, never by the length of the trace.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from itertools import chain, zip_longest
from typing import Dict, List, Optional, Tuple

from repro.instrumentation.replay import TraceSource, stream_trace


def _label(event: dict, field: str) -> str:
    """A countable name for ``event[field]`` whatever a foreign writer
    put there (``None`` when absent, a list, ...)."""
    value = event.get(field)
    return value if isinstance(value, str) else repr(value)


@dataclass
class TraceDiff:
    """Where two traces part.  ``index`` is the 0-based ordinal of the
    first event that differs (``None``: the traces are identical);
    ``before`` holds the last common events ahead of it, ``left`` and
    ``right`` each side from the diverging event on (empty when that side
    had already ended), all capped by the requested context."""

    index: Optional[int]
    before: List[dict]
    left: List[dict]
    right: List[dict]
    events: Tuple[int, int]
    kind_delta: Dict[str, int]
    """Per-kind event count of the right trace minus the left, for the
    kinds whose counts differ."""

    @property
    def identical(self) -> bool:
        return self.index is None


def diff_traces(left: TraceSource, right: TraceSource, context: int = 3) -> TraceDiff:
    """Compare two traces event by event.

    Reads with ``verify=False``: a trace that was edited or cut short is
    exactly what this has to be able to look at.
    """
    streams = (stream_trace(left, verify=False), stream_trace(right, verify=False))
    before: deque = deque(maxlen=context)
    index = 0
    for heads in zip_longest(*streams):
        if heads[0] != heads[1]:
            break
        before.append(heads[0])
        index += 1
    else:
        return TraceDiff(None, list(before), [], [], (index, index), {})
    # Up to here both sides counted the same kinds; only the tails can
    # move the delta.
    delta: Counter = Counter()
    tails: List[List[dict]] = []
    totals: List[int] = []
    for head, stream, sign in zip(heads, streams, (-1, 1)):
        tail: List[dict] = []
        total = index
        for event in chain(() if head is None else (head,), stream):
            total += 1
            delta[_label(event, "type")] += sign
            if len(tail) <= context:
                tail.append(event)
        tails.append(tail)
        totals.append(total)
    return TraceDiff(
        index,
        list(before),
        *tails,
        tuple(totals),
        {kind: count for kind, count in sorted(delta.items()) if count},
    )


@dataclass
class TraceStats:
    """What one trace holds: per-kind counts, per-peer event volumes and
    the simulated-time span (``None`` when no event carries a numeric
    ``t``)."""

    kinds: Dict[str, int]
    peers: Dict[str, int]
    span: Optional[Tuple[float, float]]

    @property
    def events(self) -> int:
        return sum(self.kinds.values())


def trace_stats(source: TraceSource) -> TraceStats:
    """Summarise a trace in one verified pass."""
    kinds: Counter = Counter()
    peers: Counter = Counter()
    first = last = None
    for event in stream_trace(source):
        kinds[_label(event, "type")] += 1
        peers[_label(event, "peer")] += 1
        now = event.get("t")
        if isinstance(now, (int, float)):
            if first is None or now < first:
                first = now
            if last is None or now > last:
                last = now
    return TraceStats(
        dict(kinds), dict(peers), None if first is None else (first, last)
    )
