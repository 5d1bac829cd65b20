"""Swarm-wide structured tracing.

The paper's methodology is a log of "each BitTorrent message sent or
received [...], each state change in the choke algorithm, [...] and
important events" (§III-C) — for the one instrumented client.  This
module generalises that log to *any* peer: a :class:`TracingObserver`
can be attached (alone or fanned out next to the classic
:class:`~repro.instrumentation.logger.Instrumentation`) to every peer in
the swarm, and appends one typed, schema-versioned JSON object per event
to a shared :class:`TraceRecorder`.

The trace is designed to be **replayable**: it carries exactly the
information the live :class:`~repro.instrumentation.logger.Instrumentation`
reads from the simulator at each hook, so
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
``seed_state`` ``open``: per open connection ``remote`` (+ ``up``/``down``
               when the link is still in the peer's connection table)
``hash_fail``  ``piece``
``fault``      ``kind`` (injected-fault counter key)
``stability``  ``kind`` (``sample``/``finalize``), ``data`` (swarm-size
               and chunk-distribution sample, see
               :meth:`~repro.sim.observer.PeerObserver.on_stability`) —
               gated: never emitted unless a
               :class:`~repro.workloads.open_system.StabilityDetector`
               is attached, so closed-system traces are byte-identical
``snapshot``   ``data``: every field of one
               :class:`~repro.instrumentation.logger.Snapshot`
``finalize``   ``joined_at``, ``became_seed_at``, ``open`` (as above)
=============  ==============================================================

Readers skip event types they do not know, so a trace that holds a
type this catalogue has since dropped still verifies and replays.
"""

from __future__ import annotations

import hashlib
import json
from typing import IO, Dict, List, Optional

from repro.protocol.messages import (
    Bitfield as BitfieldMessage,
    Cancel,
    Have,
    Message,
    Piece,
    Request,
)
from repro.sim.observer import PeerObserver

TRACE_SCHEMA_VERSION = 1


class TraceRecorder:
    """Append-only JSONL sink with a running content fingerprint.

    With a ``path`` the recorder streams to that file; without one it
    accumulates lines in memory (tests, small runs).  Multiple
    :class:`TracingObserver` instances — one per traced peer — may share
    one recorder; events interleave in emission order, which is
    deterministic for a seeded run.

    The fingerprint is the SHA-256 of every emitted line (header
    included, newline-terminated, UTF-8) and is written into the
    ``trace_end`` footer by :meth:`close`, so a truncated or edited file
    is detectable offline.
    """

    # Lines whose fingerprint hash is still pending are batched and fed
    # to SHA-256 in one update: two tiny hasher calls per event cost more
    # in call overhead than the hashing itself.  The digest is identical
    # to hashing each newline-terminated line on its own.
    _HASH_BATCH = 1024

    def __init__(self, path: Optional[str] = None):
        self.path = str(path) if path is not None else None
        self._file: Optional[IO[str]] = (
            open(self.path, "w") if self.path is not None else None
        )
        self._lines: List[str] = []
        self._hasher = hashlib.sha256()
        self._pending: List[str] = []
        self._events = 0
        self.fingerprint: Optional[str] = None
        # repr(now) cache shared by the hot-path observers: one engine
        # event fans out to many trace events at the same timestamp.
        self._last_t: Optional[float] = None
        self._last_ts = ""
        self._write({"type": "trace_start", "v": TRACE_SCHEMA_VERSION})

    def _flush_hash(self) -> None:
        if self._pending:
            self._hasher.update(
                ("\n".join(self._pending) + "\n").encode("utf-8")
            )
            del self._pending[:]

    def _write(self, event: dict) -> None:
        line = json.dumps(event, separators=(",", ":"))
        self._pending.append(line)
        if len(self._pending) >= self._HASH_BATCH:
            self._flush_hash()
        if self._file is not None:
            self._file.write(line)
            self._file.write("\n")
        else:
            self._lines.append(line)

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
        if len(pending) >= self._HASH_BATCH:
            self._flush_hash()
        file = self._file
        if file is not None:
            file.write(line)
            file.write("\n")
        else:
            self._lines.append(line)
        self._events += 1

    @property
    def events_emitted(self) -> int:
        return self._events

    def close(self) -> str:
        """Write the ``trace_end`` footer; returns the fingerprint.

        Idempotent: a second close returns the same fingerprint.
        """
        if self.fingerprint is not None:
            return self.fingerprint
        self._flush_hash()
        self.fingerprint = self._hasher.hexdigest()
        footer = {
            "type": "trace_end",
            "events": self._events,
            "fingerprint": self.fingerprint,
        }
        line = json.dumps(footer, separators=(",", ":"))
        if self._file is not None:
            self._file.write(line)
            self._file.write("\n")
            self._file.close()
            self._file = None
        else:
            self._lines.append(line)
        return self.fingerprint

    # -- reading back ------------------------------------------------------

    def lines(self) -> List[str]:
        """The raw JSONL lines (in-memory recorders only)."""
        if self.path is not None:
            with open(self.path) as handle:
                return [line.rstrip("\n") for line in handle]
        return list(self._lines)

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


# Have floods dominate message traffic (every completed piece is
# announced to every neighbour), and the payload depends only on the
# piece index, so the serialised suffix is memoised per index.
_HAVE_CACHE: Dict[int, str] = {}


def _have_suffix(message: Have) -> str:
    piece = message.piece
    suffix = _HAVE_CACHE.get(piece)
    if suffix is None:
        suffix = _HAVE_CACHE[piece] = ',"piece":%d' % piece
    return suffix


def _bitfield_suffix(message: BitfieldMessage) -> str:
    return ',"bits":"%s"' % message.bits.hex()


def _request_suffix(message: Request) -> str:
    return ',"piece":%d,"offset":%d,"length":%d' % (
        message.piece,
        message.offset,
        message.length,
    )


def _piece_suffix(message: Piece) -> str:
    return ',"piece":%d,"offset":%d,"length":%d' % (
        message.piece,
        message.offset,
        len(message.data),
    )


# The replay-relevant payload fields per message class, pre-serialised as
# a JSON key/value suffix.  Types not listed here (Choke, Interested,
# KeepAlive, ...) carry no payload beyond their name.
_PAYLOAD_SUFFIXES = {
    Have: _have_suffix,
    BitfieldMessage: _bitfield_suffix,
    Request: _request_suffix,
    Cancel: _request_suffix,
    Piece: _piece_suffix,
}


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
        self._open: Dict[str, object] = {}  # remote address -> Connection
        self._finalized = False

    # -- lifecycle ---------------------------------------------------------

    def on_attached(self, peer) -> None:
        self.peer = peer
        self._addr = peer.address
        # Constant middles of the two hot-path message lines, precomputed
        # so each event is a short f-string concatenation.
        self._sent_mid = ',"type":"msg_sent","peer":"%s","remote":"' % peer.address
        self._recv_mid = ',"type":"msg_recv","peer":"%s","remote":"' % peer.address
        self.recorder.emit(
            {
                "t": peer.simulator.now,
                "type": "attach",
                "peer": peer.address,
                "pieces": peer.bitfield.num_pieces,
                "seed": peer.is_seed,
            }
        )

    def on_connection_open(self, now: float, connection) -> None:
        remote = connection.remote
        self._open[remote.address] = connection
        self.recorder.emit(
            {
                "t": now,
                "type": "conn_open",
                "peer": self._addr,
                "remote": remote.address,
                "client": remote.peer_id.client_id,
                "remote_complete": remote.bitfield.is_complete(),
                "local_seed": self.peer.is_seed if self.peer else False,
                "initiated": connection.initiated_by_local,
            }
        )

    def on_connection_close(self, now: float, connection) -> None:
        address = connection.remote.address
        if self._open.get(address) is connection:
            del self._open[address]
        self.recorder.emit(
            {
                "t": now,
                "type": "conn_close",
                "peer": self._addr,
                "remote": address,
                "up": connection.uploaded.total,
                "down": connection.downloaded.total,
            }
        )

    # -- messages (hot path) -----------------------------------------------

    def on_message_sent(self, now: float, connection, message: Message) -> None:
        emit_message = self._emit_message
        if emit_message is not None:
            emit_message(now, 0, self._addr, connection.remote.address, message)
            return
        recorder = self.recorder
        if now == recorder._last_t:
            ts = recorder._last_ts
        else:
            ts = repr(now)
            recorder._last_t = now
            recorder._last_ts = ts
        message_type = type(message)
        suffix = _PAYLOAD_SUFFIXES.get(message_type)
        recorder.emit_raw(
            f'{{"t":{ts}{self._sent_mid}{connection.remote.address}'
            f'","msg":"{message_type.__name__}"'
            f'{"" if suffix is None else suffix(message)}}}'
        )

    def on_message_received(self, now: float, connection, message: Message) -> None:
        emit_message = self._emit_message
        if emit_message is not None:
            emit_message(now, 1, self._addr, connection.remote.address, message)
            return
        recorder = self.recorder
        if now == recorder._last_t:
            ts = recorder._last_ts
        else:
            ts = repr(now)
            recorder._last_t = now
            recorder._last_ts = ts
        message_type = type(message)
        suffix = _PAYLOAD_SUFFIXES.get(message_type)
        recorder.emit_raw(
            f'{{"t":{ts}{self._recv_mid}{connection.remote.address}'
            f'","msg":"{message_type.__name__}"'
            f'{"" if suffix is None else suffix(message)}}}'
        )

    # -- choke algorithm ---------------------------------------------------

    def on_choke_round(self, now: float, decision) -> None:
        self.recorder.emit(
            {
                "t": now,
                "type": "choke",
                "peer": self._addr,
                "unchoked": list(decision.unchoked),
                "local_seed": self.peer.is_seed if self.peer else False,
            }
        )

    def on_rate_sample(
        self, now: float, connection, download_rate: float, upload_rate: float
    ) -> None:
        if self.record_rates:
            self.recorder.emit(
                {
                    "t": now,
                    "type": "rate",
                    "peer": self._addr,
                    "remote": connection.remote.address,
                    "down": download_rate,
                    "up": upload_rate,
                }
            )

    # -- transfers & events ------------------------------------------------

    def on_block_received(
        self, now: float, connection, piece: int, offset: int, length: int
    ) -> None:
        emit_block = self._emit_block
        if emit_block is not None:
            emit_block(
                now, self._addr, connection.remote.address, piece, offset, length
            )
            return
        self.recorder.emit(
            {
                "t": now,
                "type": "block",
                "peer": self._addr,
                "remote": connection.remote.address,
                "piece": piece,
                "offset": offset,
                "length": length,
            }
        )

    def on_piece_completed(self, now: float, piece: int) -> None:
        self.recorder.emit(
            {"t": now, "type": "piece", "peer": self._addr, "piece": piece}
        )

    def on_endgame_entered(self, now: float) -> None:
        self.recorder.emit({"t": now, "type": "endgame", "peer": self._addr})

    def on_seed_state(self, now: float) -> None:
        self.recorder.emit(
            {
                "t": now,
                "type": "seed_state",
                "peer": self._addr,
                "open": self._open_connection_entries(),
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

    def on_stability(self, now: float, kind: str, data: dict) -> None:
        self.recorder.emit(
            {
                "t": now,
                "type": "stability",
                "peer": self._addr,
                "kind": kind,
                "data": dict(data),
            }
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

    def _open_connection_entries(self) -> List[dict]:
        """One entry per link opened but never closed, with the byte
        totals the live instrumentation would read from the peer's
        connection table — totals are omitted for links the peer dropped
        without a close notification (a crash), which the live
        :meth:`Instrumentation.finalize` cannot flush either."""
        entries: List[dict] = []
        table = self.peer.connections if self.peer is not None else {}
        for address in self._open:
            connection = table.get(address)
            if connection is None:
                entries.append({"remote": address})
            else:
                entries.append(
                    {
                        "remote": address,
                        "up": connection.uploaded.total,
                        "down": connection.downloaded.total,
                    }
                )
        return entries

    def finalize(self, now: Optional[float] = None) -> None:
        """Emit the closing ``finalize`` event (idempotent)."""
        if self._finalized or self.peer is None:
            return
        self._finalized = True
        if now is None:
            now = self.peer.simulator.now
        self.recorder.emit(
            {
                "t": now,
                "type": "finalize",
                "peer": self._addr,
                "joined_at": self.peer.joined_at,
                "became_seed_at": self.peer.became_seed_at,
                "open": self._open_connection_entries(),
            }
        )
