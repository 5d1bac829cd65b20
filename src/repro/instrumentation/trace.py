"""Swarm-wide structured tracing.

The paper's methodology is a log of "each BitTorrent message sent or
received [...], each state change in the choke algorithm, [...] and
important events" (§III-C) — for the one instrumented client.  This
module generalises that log to *any* peer: a :class:`TracingObserver`
can be attached (alone or fanned out next to the classic
:class:`~repro.instrumentation.logger.Instrumentation`) to every peer in
the swarm, and appends one typed, schema-versioned JSON object per event
to a shared :class:`TraceRecorder`.

The trace is designed to be **replayable**: each event carries exactly
the values its :class:`~repro.sim.observer.PeerObserver` hook is handed,
so
:func:`repro.instrumentation.replay.replay_instrumentation` can rebuild
byte-equal ``RemotePeerRecord``/``Snapshot`` series offline.  It is also
**deterministic**: events are serialised with a fixed key order and no
timestamps other than simulated time, so the same seed yields a
byte-identical JSONL file and content fingerprint.

>>> recorder = TraceRecorder()
>>> recorder.emit({"t": 0.0, "type": "piece", "peer": "10.0.0.1", "piece": 3})
>>> fingerprint = recorder.close()
>>> [event["type"] for event in recorder.events()]
['piece']
>>> len(fingerprint)
64

Event catalogue (schema v1) — every event carries ``t`` (simulated
seconds), ``type`` and ``peer`` (the observed peer's address):

=============  ==============================================================
``attach``     ``pieces`` (torrent piece count), ``seed`` (started complete)
``conn_open``  ``remote``, ``client``, ``remote_complete``, ``local_seed``,
               ``initiated``
``conn_close`` ``remote``, ``up``/``down`` (connection byte totals)
``msg_sent``   ``remote``, ``msg`` (class name) + message payload fields
``msg_recv``   (``piece``; ``bits`` hex; ``piece``/``offset``/``length``)
``choke``      ``unchoked`` (addresses), ``local_seed``
``rate``       ``remote``, ``down``, ``up`` (rate-estimator samples)
``block``      ``remote``, ``piece``, ``offset``, ``length``
``piece``      ``piece``
``endgame``    —
``seed_state`` ``open``: per open link ``remote``, ``up``, ``down`` (byte
               totals); older traces may omit the totals of a link the
               peer had already dropped
``hash_fail``  ``piece``
``fault``      ``kind`` (fault counter key, e.g. ``connection_reaped``)
``announce``   ``kind`` (``started``/``stopped``/``completed``/
               ``interval``), ``data`` (``peer``, ``num_want``,
               ``returned``, ``attempt``; see
               :meth:`~repro.sim.observer.PeerObserver.on_announce`) —
               gated: never emitted unless
               ``SwarmConfig.trace_announces`` is set
``snapshot``   ``data``: every field of one
               :class:`~repro.instrumentation.logger.Snapshot`
``finalize``   ``joined_at``, ``became_seed_at``, ``open`` (as above)
=============  ==============================================================

Readers skip event types they do not know, so a trace that holds a
type this catalogue has since dropped (``playback``, ``stability``)
still verifies, replays and counts in ``repro trace stats``.
"""

from __future__ import annotations

import hashlib
import json
import weakref
from typing import IO, Dict, List, Optional, Sequence

from repro.protocol.messages import (
    Bitfield as BitfieldMessage,
    Cancel,
    Have,
    Message,
    Piece,
    Request,
)
from repro.sim.observer import LinkTotals, PeerObserver

TRACE_SCHEMA_VERSION = 1

# Every event names one or two addresses, drawn from a small set, so each
# is rendered once: the JSON string ``json.dumps`` writes for it, escapes
# and ``\uXXXX`` forms included.
_QUOTED: Dict[str, str] = {}


def quote_address(address: str) -> str:
    """*address* as the JSON string literal ``json.dumps`` renders.

    The one place a hot-path line renders an address, for the JSONL
    writer and for RBT1's decoder alike: an address holding a ``"``, a
    backslash or a non-ASCII character must still make the line
    ``json.dumps`` would have made.
    """
    quoted = _QUOTED.get(address)
    if quoted is None:
        quoted = _QUOTED[address] = json.dumps(address)
    return quoted


# Have floods dominate message traffic (every completed piece is
# announced to every neighbour), and the payload depends only on the
# piece index, so the rendered tail is memoised per index.
_HAVE_TAILS: Dict[int, str] = {}


def _have_tail(message: Have) -> str:
    piece = message.piece
    tail = _HAVE_TAILS.get(piece)
    if tail is None:
        tail = _HAVE_TAILS[piece] = ',"msg":"Have","piece":%d}' % piece
    return tail


def _bitfield_tail(message: BitfieldMessage) -> str:
    return ',"msg":"Bitfield","bits":"%s"}' % message.bits.hex()


def _request_tail(message: Request) -> str:
    return ',"msg":"%s","piece":%d,"offset":%d,"length":%d}' % (
        type(message).__name__,
        message.piece,
        message.offset,
        message.length,
    )


def _piece_tail(message: Piece) -> str:
    return ',"msg":"Piece","piece":%d,"offset":%d,"length":%d}' % (
        message.piece,
        message.offset,
        len(message.data),
    )


# The replay-relevant payload fields per message class.  Types not
# listed here (Choke, Interested, KeepAlive, ...) carry no payload
# beyond their name.
_PAYLOAD_TAILS = {
    Have: _have_tail,
    BitfieldMessage: _bitfield_tail,
    Request: _request_tail,
    Cancel: _request_tail,
    Piece: _piece_tail,
}


def message_tail(message: Message) -> str:
    """The end of a message event's line, from ``,"msg":`` to the
    closing brace: the class name and its payload fields."""
    render = _PAYLOAD_TAILS.get(type(message))
    if render is None:
        return ',"msg":"%s"}' % type(message).__name__
    return render(message)


def block_line(
    t: float, peer: str, remote: str, piece: int, offset: int, length: int
) -> str:
    """One ``block`` event's line, as ``json.dumps`` renders it."""
    return (
        '{"t":%r,"type":"block","peer":%s,"remote":%s,'
        '"piece":%d,"offset":%d,"length":%d}'
        % (t, quote_address(peer), quote_address(remote), piece, offset, length)
    )


# The generic encoder, built once: ``json.dumps`` with any non-default
# argument builds a new encoder on every call.
_encode = json.JSONEncoder(separators=(",", ":")).encode


def _write_abandoned(pending: List[str], file: IO[bytes]) -> None:
    """A file recorder dropped without :meth:`TraceRecorder.close`:
    every emitted line reaches the file and no footer does, so the trace
    reads as its writer crashed."""
    if pending:
        pending.append("")
        file.write("\n".join(pending).encode("utf-8"))
        pending.clear()
    file.close()


class TraceRecorder:
    """Append-only JSONL sink with a running content fingerprint.

    With a ``path`` the recorder streams to that file; without one it
    accumulates the trace in memory (tests, small runs).  Multiple
    :class:`TracingObserver` instances — one per traced peer — may share
    one recorder; events interleave in emission order, which is
    deterministic for a seeded run.

    The fingerprint is the SHA-256 of every emitted line (header
    included, newline-terminated, UTF-8) and is written into the
    ``trace_end`` footer by :meth:`close`, so a truncated or edited file
    is detectable offline.  The bytes hashed are the bytes written.
    """

    # Emitted lines collect in one batch of this many entries (a pair's
    # two lines are one entry); the batch is encoded once and the same
    # bytes go to SHA-256 and to the file.  Per-line hasher and file
    # calls cost more in call overhead than the hashing and writing
    # themselves.  Neither the digest nor the file depends on where a
    # batch ends.
    _BATCH = 1024

    def __init__(self, path: Optional[str] = None):
        self.path = str(path) if path is not None else None
        self._file: Optional[IO[bytes]] = (
            open(self.path, "wb") if self.path is not None else None
        )
        self._text: List[str] = []  # in memory: the batches written
        self._hasher = hashlib.sha256()
        self._pending: List[str] = []
        self._abandon = (
            weakref.finalize(self, _write_abandoned, self._pending, self._file)
            if self._file is not None
            else None
        )
        self._events = 0
        self.fingerprint: Optional[str] = None
        # repr(now) cache shared by the hot-path renderers: one engine
        # event fans out to many trace events at the same timestamp.
        self._last_t: Optional[float] = None
        self._last_ts = ""
        # Per address, the heads of its msg_sent and msg_recv lines up to
        # the remote's value, and the address rendered alone.
        self._heads: Dict[str, tuple] = {}
        self._write({"type": "trace_start", "v": TRACE_SCHEMA_VERSION})

    def _write_batch(self) -> None:
        pending = self._pending
        if pending:
            pending.append("")
            text = "\n".join(pending)
            pending.clear()
            data = text.encode("utf-8")
            self._hasher.update(data)
            if self._file is not None:
                self._file.write(data)
            else:
                self._text.append(text)

    def _write(self, event: dict) -> None:
        pending = self._pending
        pending.append(_encode(event))
        if len(pending) >= self._BATCH:
            self._write_batch()

    def emit(self, event: dict) -> None:
        """Append one event object (caller keeps key order deterministic)."""
        if self.fingerprint is not None:
            raise RuntimeError("trace recorder is closed")
        self._write(event)
        self._events += 1

    def emit_raw(self, line: str) -> None:
        """Hot-path variant of :meth:`emit` taking a pre-serialised line.

        *line* must be one JSON object without a trailing newline and
        byte-identical to what ``json.dumps(event, separators=(",", ":"))``
        would produce — message events are frequent enough that skipping
        the generic encoder is worth the duplication.
        """
        if self.fingerprint is not None:
            raise RuntimeError("trace recorder is closed")
        pending = self._pending
        pending.append(line)
        self._events += 1
        if len(pending) >= self._BATCH:
            self._write_batch()

    def _address_heads(self, address: str) -> tuple:
        quoted = quote_address(address)
        heads = self._heads[address] = (
            ',"type":"msg_sent","peer":%s,"remote":' % quoted,
            ',"type":"msg_recv","peer":%s,"remote":' % quoted,
            quoted,
        )
        return heads

    def emit_message_pair(
        self, now: float, sender: str, receiver: str, message: Message
    ) -> None:
        """One synchronous delivery: the ``msg_sent`` line of *sender*
        and the ``msg_recv`` line of *receiver*, as the two
        :class:`TracingObserver` hooks would emit them back to back."""
        self._emit_pair(now, sender, receiver, message_tail(message))

    def emit_have_pair(
        self, now: float, sender: str, receiver: str, piece: int
    ) -> None:
        """:meth:`emit_message_pair` for a HAVE of *piece*, the pair the
        fused flood delivers."""
        tail = _HAVE_TAILS.get(piece)
        if tail is None:
            tail = _have_tail(Have(piece=piece))
        self._emit_pair(now, sender, receiver, tail)

    def _emit_pair(self, now: float, sender: str, receiver: str, tail: str) -> None:
        if self.fingerprint is not None:
            raise RuntimeError("trace recorder is closed")
        if now == self._last_t:
            ts = self._last_ts
        else:
            ts = self._last_ts = repr(now)
            self._last_t = now
        heads = self._heads
        sent = heads.get(sender) or self._address_heads(sender)
        received = heads.get(receiver) or self._address_heads(receiver)
        # Both lines in one batch entry: the batch is joined with the
        # same newline that separates them.
        pending = self._pending
        pending.append(
            f'{{"t":{ts}{sent[0]}{received[2]}{tail}\n'
            f'{{"t":{ts}{received[1]}{sent[2]}{tail}'
        )
        self._events += 2
        if len(pending) >= self._BATCH:
            self._write_batch()

    @property
    def events_emitted(self) -> int:
        return self._events

    def flush(self) -> None:
        """Write out every line emitted so far (the footer waits for
        :meth:`close`)."""
        self._write_batch()
        if self._file is not None:
            self._file.flush()

    def close(self) -> str:
        """Write the ``trace_end`` footer; returns the fingerprint.

        Idempotent: a second close returns the same fingerprint.
        """
        if self.fingerprint is not None:
            return self.fingerprint
        self._write_batch()
        self.fingerprint = self._hasher.hexdigest()
        footer = {
            "type": "trace_end",
            "events": self._events,
            "fingerprint": self.fingerprint,
        }
        line = _encode(footer) + "\n"
        if self._file is not None:
            self._abandon.detach()
            self._file.write(line.encode("utf-8"))
            self._file.close()
            self._file = None
        else:
            self._text.append(line)
        return self.fingerprint

    # -- reading back ------------------------------------------------------

    def lines(self) -> List[str]:
        """The raw JSONL lines written so far, open or closed."""
        self.flush()
        if self.path is not None:
            with open(self.path, "rb") as handle:
                text = handle.read().decode("utf-8")
        else:
            text = "".join(self._text)
        return text.split("\n")[:-1]

    def events(self) -> List[dict]:
        """Parsed events, header/footer excluded."""
        return [
            event
            for event in (json.loads(line) for line in self.lines())
            if event.get("type") not in ("trace_start", "trace_end")
        ]

    def __enter__(self) -> "TraceRecorder":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class TracingObserver(PeerObserver):
    """Emit one structured event per observer hook into a recorder.

    One instance traces one peer; attach it directly, or next to an
    :class:`~repro.instrumentation.logger.Instrumentation` through a
    :class:`~repro.sim.observer.FanoutObserver`.  Tracing draws no
    randomness and schedules no events, so a traced seeded run's
    *simulation* outcome is identical to an untraced one.

    ``record_rates`` mirrors the same flag on ``Instrumentation``: rate
    events are voluminous (one per connection per choke round) and only
    needed for figure-10-style analyses.
    """

    def __init__(self, recorder: TraceRecorder, record_rates: bool = False):
        self.recorder = recorder
        self.record_rates = record_rates
        # Capability dispatch: a recorder that understands raw message /
        # block fields (the binary recorder) skips JSON rendering on the
        # two hottest event kinds entirely.
        self._emit_message = getattr(recorder, "emit_message", None)
        self._emit_block = getattr(recorder, "emit_block", None)
        self.peer = None
        self._addr: Optional[str] = None
        self._sent_mid = ""
        self._recv_mid = ""
        self._finalized = False

    @property
    def pair_recorder(self):
        """The recorder a synchronous delivery between two peers traced
        into it may be rendered into as one sent+received pair, skipping
        both message hooks (DESIGN §12); ``None`` when the hooks must
        run.  Only the stock observer offers it: a subclass that
        overrides a hook sees every call."""
        if type(self) is TracingObserver and hasattr(
            self.recorder, "emit_message_pair"
        ):
            return self.recorder
        return None

    # -- lifecycle ---------------------------------------------------------

    def on_attached(self, peer) -> None:
        self.peer = peer
        self._addr = peer.address
        # Constant middles of the two hot-path message lines, precomputed
        # so each event is a short f-string concatenation.
        quoted = quote_address(peer.address)
        self._sent_mid = ',"type":"msg_sent","peer":%s,"remote":' % quoted
        self._recv_mid = ',"type":"msg_recv","peer":%s,"remote":' % quoted
        self.recorder.emit(
            {
                "t": peer.simulator.now,
                "type": "attach",
                "peer": peer.address,
                "pieces": peer.num_pieces,
                "seed": peer.is_seed,
            }
        )

    def on_connection_open(
        self,
        now: float,
        remote: str,
        client: Optional[str],
        remote_complete: bool,
        local_seed: bool,
        initiated: bool,
    ) -> None:
        self.recorder.emit(
            {
                "t": now,
                "type": "conn_open",
                "peer": self._addr,
                "remote": remote,
                "client": client,
                "remote_complete": remote_complete,
                "local_seed": local_seed,
                "initiated": initiated,
            }
        )

    def on_connection_close(
        self, now: float, remote: str, up: float, down: float
    ) -> None:
        self.recorder.emit(
            {
                "t": now,
                "type": "conn_close",
                "peer": self._addr,
                "remote": remote,
                "up": up,
                "down": down,
            }
        )

    # -- messages (hot path) -----------------------------------------------

    def on_message_sent(self, now: float, remote: str, message: Message) -> None:
        emit_message = self._emit_message
        if emit_message is not None:
            emit_message(now, 0, self._addr, remote, message)
            return
        recorder = self.recorder
        if now == recorder._last_t:
            ts = recorder._last_ts
        else:
            ts = repr(now)
            recorder._last_t = now
            recorder._last_ts = ts
        recorder.emit_raw(
            f'{{"t":{ts}{self._sent_mid}{quote_address(remote)}'
            f'{message_tail(message)}'
        )

    def on_message_received(self, now: float, remote: str, message: Message) -> None:
        emit_message = self._emit_message
        if emit_message is not None:
            emit_message(now, 1, self._addr, remote, message)
            return
        recorder = self.recorder
        if now == recorder._last_t:
            ts = recorder._last_ts
        else:
            ts = repr(now)
            recorder._last_t = now
            recorder._last_ts = ts
        recorder.emit_raw(
            f'{{"t":{ts}{self._recv_mid}{quote_address(remote)}'
            f'{message_tail(message)}'
        )

    # -- choke algorithm ---------------------------------------------------

    def on_choke_round(
        self, now: float, unchoked: List[str], local_seed: bool
    ) -> None:
        self.recorder.emit(
            {
                "t": now,
                "type": "choke",
                "peer": self._addr,
                "unchoked": list(unchoked),
                "local_seed": local_seed,
            }
        )

    def on_rate_sample(
        self, now: float, remote: str, download_rate: float, upload_rate: float
    ) -> None:
        if self.record_rates:
            self.recorder.emit(
                {
                    "t": now,
                    "type": "rate",
                    "peer": self._addr,
                    "remote": remote,
                    "down": download_rate,
                    "up": upload_rate,
                }
            )

    # -- transfers & events ------------------------------------------------

    def on_block_received(
        self, now: float, remote: str, piece: int, offset: int, length: int
    ) -> None:
        emit_block = self._emit_block
        if emit_block is not None:
            emit_block(now, self._addr, remote, piece, offset, length)
            return
        self.recorder.emit_raw(
            block_line(now, self._addr, remote, piece, offset, length)
        )

    def on_piece_completed(self, now: float, piece: int) -> None:
        self.recorder.emit(
            {"t": now, "type": "piece", "peer": self._addr, "piece": piece}
        )

    def on_endgame_entered(self, now: float) -> None:
        self.recorder.emit({"t": now, "type": "endgame", "peer": self._addr})

    def on_seed_state(self, now: float, open_links: Sequence[LinkTotals]) -> None:
        self.recorder.emit(
            {
                "t": now,
                "type": "seed_state",
                "peer": self._addr,
                "open": _open_entries(open_links),
            }
        )

    def on_hash_failure(self, now: float, piece: int) -> None:
        self.recorder.emit(
            {"t": now, "type": "hash_fail", "peer": self._addr, "piece": piece}
        )

    def on_fault(self, now: float, kind: str) -> None:
        self.recorder.emit(
            {"t": now, "type": "fault", "peer": self._addr, "kind": kind}
        )

    def on_announce(self, now: float, kind: str, data: dict) -> None:
        self.recorder.emit(
            {
                "t": now,
                "type": "announce",
                "peer": self._addr,
                "kind": kind,
                "data": dict(data),
            }
        )

    def on_snapshot(self, now: float, snapshot) -> None:
        self.recorder.emit(
            {
                "t": now,
                "type": "snapshot",
                "peer": self._addr,
                "data": dict(vars(snapshot)),
            }
        )

    # -- finalisation ------------------------------------------------------

    def finalize(self, now: Optional[float] = None) -> None:
        """Emit the closing ``finalize`` event from the attached live
        peer's state (idempotent)."""
        peer = self.peer
        if peer is not None:
            self.on_finalize(
                peer.simulator.now if now is None else now,
                peer.joined_at,
                peer.became_seed_at,
                peer.link_totals(),
            )

    def on_finalize(
        self,
        now: float,
        joined_at: Optional[float],
        became_seed_at: Optional[float],
        open_links: Sequence[LinkTotals],
    ) -> None:
        """The ``finalize`` event's values: the peer's join and seed
        times and the byte totals of its open links."""
        if self._finalized:
            return
        self._finalized = True
        self.recorder.emit(
            {
                "t": now,
                "type": "finalize",
                "peer": self._addr,
                "joined_at": joined_at,
                "became_seed_at": became_seed_at,
                "open": _open_entries(open_links),
            }
        )


def _open_entries(open_links: Sequence[LinkTotals]) -> List[dict]:
    """The ``open`` field of a ``seed_state`` or ``finalize`` event."""
    return [
        {"remote": remote, "up": up, "down": down} for remote, up, down in open_links
    ]
