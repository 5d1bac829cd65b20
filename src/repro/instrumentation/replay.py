"""Offline reconstruction of instrumentation state from a trace file.

:func:`replay_instrumentation` reads a JSONL trace written by
:class:`~repro.instrumentation.trace.TracingObserver` and rebuilds an
:class:`~repro.instrumentation.logger.Instrumentation` **without running
the simulator**: it instantiates the real observer class and calls the
exact same hook methods the live simulation called, in the same order,
with each event's fields — the values the live hooks were handed.
Because the live and replayed objects execute identical code on
identical inputs, every derived quantity — presence intervals,
byte splits, unchoke counts, snapshot series, and hence every figure —
is reproduced with exact field-level equality (floats included: JSON
round-trips IEEE doubles exactly).

This is the audit path the paper's methodology implies but never had:
any claim made from the live instrumentation can be re-derived from the
portable trace file alone.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from itertools import chain, islice
from typing import Iterable, Iterator, List, NamedTuple, Optional, Tuple, Union

from repro.instrumentation.logger import Instrumentation, Snapshot
from repro.instrumentation.trace import TRACE_SCHEMA_VERSION, TraceRecorder
from repro.protocol.messages import (
    Bitfield as BitfieldMessage,
    Cancel,
    Choke,
    Have,
    Interested,
    KeepAlive,
    NotInterested,
    Piece,
    Request,
    Unchoke,
)
from repro.sim.observer import LinkTotals

TraceSource = Union[str, TraceRecorder, Iterable[str]]


class TraceFormatError(ValueError):
    """The trace file is missing, truncated, or from another schema."""


# Lines decoded by one ``json.loads`` call and hashed by one update (the
# write side batches its hashing the same way).  One call per batch, not
# per line, keeps the C scanner's key memo alive across the batch, so its
# events share one copy of "t", "type", "peer", ... instead of carrying a
# private copy each; it also bounds what a consumer that stops early has
# made the reader pull from the source.
_BATCH_LINES = 1024

# The JSON string a footer line must contain whatever the separators.
_FOOTER_MARK = '"trace_end"'


@contextmanager
def _trace_lines(source: TraceSource) -> Iterator[Iterable[str]]:
    """The raw lines of *source*; a file stays open only inside the block."""
    if isinstance(source, TraceRecorder):
        source.flush()  # an open recorder: what it emitted so far
        source = source.path if source.path is not None else source.lines()
    if not isinstance(source, str):
        yield source
        return
    with open(source, "rb") as handle:
        binary = handle.read(4) == b"RBT1"
    if binary:
        # A binary trace: decode it to the equivalent JSONL lines
        # (imported lazily — bintrace imports this module's error).
        from repro.instrumentation.bintrace import binary_to_jsonl

        yield binary_to_jsonl(source)
        return
    # surrogateescape carries undecodable bytes through to the hash
    # unchanged: a flipped byte is a fingerprint mismatch or an invalid
    # line, never a UnicodeDecodeError.
    with open(source, encoding="utf-8", errors="surrogateescape") as handle:
        yield handle


def _decode_each(
    lines: List[str], offsets: Iterable[int], first: int
) -> Iterator[object]:
    """Decode line by line, lazily, naming the first line that fails
    (*first* is the number of the line at offset 0)."""
    for offset, line in zip(offsets, lines):
        try:
            yield json.loads(line)
        except (ValueError, RecursionError):
            raise TraceFormatError("line %d is not valid JSON" % (first + offset))


def _decode(lines: List[str], offsets: Iterable[int], first: int) -> Iterable[object]:
    """One decoded value per line: in a single call when the batch parses
    to exactly that, line by line otherwise (a comma inside one line can
    hide in the joined text, and the error has to name its line)."""
    try:
        values = json.loads("[" + ",".join(lines) + "]")
    except (ValueError, RecursionError):
        values = None
    if values is not None and len(values) == len(lines):
        return values
    return _decode_each(lines, offsets, first)


def _event_batches(
    lines: Iterable[str], verify: bool, peer: Optional[str]
) -> Iterator[List[dict]]:
    """The events of *lines*, one list per batch of lines; raises what
    :func:`stream_trace` documents."""
    needle = None
    if peer is not None and json.dumps(peer) == '"%s"' % peer:
        # Only an address JSON writes one way can be searched for as
        # text; any other peer is matched after decoding alone.
        needle = '"%s"' % peer
    lines = iter(lines)
    header = next(filter(None, (line.rstrip("\n") for line in lines)), None)
    if header is None:
        raise TraceFormatError("empty trace")
    start = next(_decode_each([header], [0], 1))
    if not isinstance(start, dict):
        raise TraceFormatError("line 1 is not a JSON object")
    if start.get("type") != "trace_start":
        raise TraceFormatError("missing trace_start header")
    if verify and start.get("v") != TRACE_SCHEMA_VERSION:
        raise TraceFormatError(
            "trace schema v%s, reader supports v%d"
            % (start.get("v"), TRACE_SCHEMA_VERSION)
        )
    hasher = hashlib.sha256((header + "\n").encode("utf-8", "surrogateescape"))
    seen = 1  # non-blank lines before the current batch
    footer: Optional[dict] = None
    while footer is None:
        batch = [line.rstrip("\n") for line in islice(lines, _BATCH_LINES)]
        if not batch:
            break
        if "" in batch:
            batch = [line for line in batch if line]
        if needle is None:
            offsets: Iterable[int] = range(len(batch))
            picked = batch
        else:
            # Everything else cannot be an event of *peer* (or the
            # footer) and is hashed and counted without being decoded.
            offsets = [
                offset
                for offset, line in enumerate(batch)
                if needle in line or _FOOTER_MARK in line
            ]
            picked = [batch[offset] for offset in offsets]
        events: List[dict] = []
        for offset, event in zip(offsets, _decode(picked, offsets, seen + 1)):
            if not isinstance(event, dict):
                raise TraceFormatError(
                    "line %d is not a JSON object" % (seen + 1 + offset)
                )
            if event.get("type") == "trace_end":
                # Whatever follows the footer is not part of the trace.
                footer = event
                del batch[offset:]
                break
            if peer is None or event.get("peer") == peer:
                events.append(event)
        if verify and batch:
            hasher.update(
                ("\n".join(batch) + "\n").encode("utf-8", "surrogateescape")
            )
        seen += len(batch)
        yield events
    if verify and footer is not None:
        if footer.get("events") != seen - 1:
            raise TraceFormatError(
                "footer says %s events, found %d" % (footer.get("events"), seen - 1)
            )
        if footer.get("fingerprint") != hasher.hexdigest():
            raise TraceFormatError("trace fingerprint mismatch (file edited?)")


def stream_trace(
    source: TraceSource, verify: bool = True, peer: Optional[str] = None
) -> Iterator[dict]:
    """Yield the events of a trace in order (header/footer stripped).

    The one reader: everything that opens, decodes or verifies a trace
    goes through this generator, and it holds one batch of lines at a
    time, never the trace.  *source* is a file path (JSONL or RBT1), an
    in-memory :class:`TraceRecorder`, or any iterable of JSONL lines.

    A line that is not a JSON object raises :class:`TraceFormatError`
    naming it, before any event of its batch is yielded.  With ``verify``
    (the default) the header's schema version is checked up front and,
    when a ``trace_end`` footer is present, the recomputed content
    fingerprint and event count must match it — so silent truncation or
    editing fails loudly.  A generator can only know that **on
    exhaustion**: the mismatch is raised in place of ``StopIteration``,
    after the last event, so a caller that folds the stream must not
    hand out its result before the loop has ended.  A trace without a
    footer (its writer crashed) still reads.

    With ``peer`` only that peer's events are yielded.  Lines whose text
    cannot contain the address are skipped undecoded — still hashed,
    still counted — and every decoded event is still compared on its
    ``peer`` field, so the text search can only save work, never decide.
    """
    with _trace_lines(source) as lines:
        for events in _event_batches(lines, verify, peer):
            yield from events


def iter_trace(source: TraceSource, verify: bool = True) -> List[dict]:
    """Parse a trace into its event list (header/footer stripped).

    The list form of :func:`stream_trace`, for callers that index the
    events or take their length; verification has passed when it
    returns.
    """
    return list(stream_trace(source, verify=verify))


def traced_peers(source: TraceSource) -> List[str]:
    """Addresses of every peer with an ``attach`` event, in trace order."""
    seen: List[str] = []
    for event in stream_trace(source):
        if event.get("type") == "attach" and event["peer"] not in seen:
            seen.append(event["peer"])
    return seen


_SIMPLE_MESSAGES = {
    "Interested": Interested,
    "NotInterested": NotInterested,
    "Choke": Choke,
    "Unchoke": Unchoke,
    "KeepAlive": KeepAlive,
}


class _OpaqueMessage:
    """Fallback for message types the observer treats generically."""

    __slots__ = ()


def _build_message(event: dict):
    name = event["msg"]
    simple = _SIMPLE_MESSAGES.get(name)
    if simple is not None:
        return simple()
    if name == "Have":
        return Have(piece=event["piece"])
    if name == "Bitfield":
        return BitfieldMessage(bits=bytes.fromhex(event["bits"]))
    if name == "Request":
        return Request(
            piece=event["piece"], offset=event["offset"], length=event["length"]
        )
    if name == "Cancel":
        return Cancel(
            piece=event["piece"], offset=event["offset"], length=event["length"]
        )
    if name == "Piece":
        return Piece(
            piece=event["piece"], offset=event["offset"], data=b"\0" * event["length"]
        )
    return _OpaqueMessage()


class ReplayedPeer(NamedTuple):
    """The observed peer as its ``attach`` event records it: all that
    replay keeps of the peer (``repro replay`` prints its address)."""

    address: str
    num_pieces: int


def _link_totals(entries: List[dict]) -> List[LinkTotals]:
    """The ``open`` field of a ``seed_state`` or ``finalize`` event as
    hook values.  An entry without totals (older traces) names a link
    the live peer had already dropped without a close: the live hooks
    were not handed it either."""
    return [
        (entry["remote"], entry["up"], entry["down"])
        for entry in entries
        if "up" in entry
    ]


class ReplayedInstrumentation(Instrumentation):
    """An :class:`Instrumentation` rebuilt from a trace file.

    Identical API to the live object; ``replayed_from_events`` counts
    the trace events consumed.
    """

    def __init__(self, address: str) -> None:
        super().__init__(record_rates=True)
        self.replayed_from_events = 0
        self.peer = ReplayedPeer(address, 0)  # until the attach event
        # What the events so far say of the peer's join and seed times,
        # and the last event's time: a trace cut before its finalize
        # event (its writer crashed) says no more.
        self._joined_so_far: Optional[float] = None
        self._seed_so_far: Optional[float] = None
        self._last_t = 0.0

    def _observed_times(self) -> Tuple[Optional[float], Optional[float], float]:
        if self._finalized_at is not None:
            return Instrumentation._observed_times(self)
        return self._joined_so_far, self._seed_so_far, self._last_t

    def finalize(self, now: Optional[float] = None) -> None:
        """The trace's ``finalize`` event is the finalize step.  A trace
        cut before it is closed here, at *now* or its last event, with
        no byte flush: it never recorded the final totals."""
        joined_at, became_seed_at, last_t = self._observed_times()
        self.on_finalize(last_t if now is None else now, joined_at, became_seed_at, ())

    def replay_event(self, event: dict) -> None:
        """Call the hook *event* records, with its fields."""
        kind = event["type"]
        now = self._last_t = event["t"]
        if kind in ("msg_sent", "msg_recv"):
            message = _build_message(event)
            if kind == "msg_sent":
                self.on_message_sent(now, event["remote"], message)
            else:
                self.on_message_received(now, event["remote"], message)
        elif kind == "block":
            self.on_block_received(
                now, event["remote"], event["piece"], event["offset"], event["length"]
            )
        elif kind == "choke":
            self.on_choke_round(now, event["unchoked"], event["local_seed"])
        elif kind == "rate":
            self.on_rate_sample(now, event["remote"], event["down"], event["up"])
        elif kind == "snapshot":
            self.on_snapshot(now, Snapshot(**event["data"]))
        elif kind == "conn_open":
            self.on_connection_open(
                now,
                event["remote"],
                event["client"],
                event["remote_complete"],
                event["local_seed"],
                event["initiated"],
            )
        elif kind == "conn_close":
            self.on_connection_close(now, event["remote"], event["up"], event["down"])
        elif kind == "attach":
            self.on_attached(ReplayedPeer(event["peer"], event["pieces"]))
            self._joined_so_far = now
            # Peer.__init__ stamps initial seeds with became_seed_at=0.
            self._seed_so_far = 0.0 if event["seed"] else None
        elif kind == "piece":
            self.on_piece_completed(now, event["piece"])
        elif kind == "endgame":
            self.on_endgame_entered(now)
        elif kind == "seed_state":
            self.on_seed_state(now, _link_totals(event["open"]))
            self._seed_so_far = now
        elif kind == "hash_fail":
            self.on_hash_failure(now, event["piece"])
        elif kind == "fault":
            self.on_fault(now, event["kind"])
        elif kind == "announce":
            self.on_announce(now, event["kind"], event["data"])
        elif kind == "finalize":
            self.on_finalize(
                now,
                event["joined_at"],
                event["became_seed_at"],
                _link_totals(event["open"]),
            )
        # Unknown event types are skipped: newer minor revisions may add
        # informational events without breaking old readers.


def replay_instrumentation(
    source: TraceSource, peer: Optional[str] = None, verify: bool = True
) -> ReplayedInstrumentation:
    """Rebuild the instrumentation of one traced peer from *source*.

    ``peer`` selects which traced peer to reconstruct when the trace
    covers several (swarm-wide tracing); it defaults to the first peer
    with an ``attach`` event (the first event an observer emits, so
    nothing of that peer precedes it).  A named peer the trace holds no
    event of raises :class:`TraceFormatError`.  The trace is folded as
    it streams: nothing is returned unless :func:`stream_trace` ran to
    its end, verification included.
    """
    named = peer is not None
    events = stream_trace(source, verify=verify, peer=peer)
    if not named:
        for event in events:
            if event.get("type") == "attach" and event.get("peer") is not None:
                break
        else:
            raise TraceFormatError("trace contains no attach event")
        peer = event["peer"]
        events = chain((event,), events)

    instrumentation = ReplayedInstrumentation(peer)
    for event in events:
        if event.get("peer") != peer:
            continue
        instrumentation.replayed_from_events += 1
        try:
            instrumentation.replay_event(event)
        except KeyError as exc:
            raise TraceFormatError(
                "%s event %d of peer %s has no field %s"
                % (
                    event.get("type"),
                    instrumentation.replayed_from_events,
                    peer,
                    exc,
                )
            ) from exc
    if named and not instrumentation.replayed_from_events:
        raise TraceFormatError(
            "trace holds no events of peer %s (see --list-peers)" % peer
        )
    return instrumentation
