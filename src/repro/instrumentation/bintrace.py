"""Compact binary trace container for the JSONL trace format.

JSONL tracing (:mod:`repro.instrumentation.trace`) costs most of its
overhead in string formatting: every message event renders ~100 bytes of
JSON while carrying ~20 bytes of information.  This module defines a
struct-packed binary container for the *same* event stream, plus lossless
converters in both directions — the binary file is a pure re-encoding of
the JSONL trace, and converting back reproduces the JSONL file byte for
byte (fingerprint included).

A :class:`BinaryTraceRecorder` can also sit directly behind a
:class:`~repro.instrumentation.trace.TracingObserver` as a drop-in
recorder: the observer detects the ``emit_message``/``emit_block``
capabilities and hands over raw fields, skipping JSON rendering entirely
on the hot paths.  Converting such a live binary file to JSONL yields the
byte-identical file a :class:`~repro.instrumentation.trace.TraceRecorder`
would have written for the same run.

Wire format (all integers little-endian)::

    file   := magic record* end
    magic  := b"RBT1"
    record := addr | msg | block | json
    addr   := 0x03  u16 id  u8 len  <len utf-8 bytes>     (address interning)
    msg    := 0x01  f64 t  u16 peer  u16 remote  u8 dir  u8 code  payload
              payload: Have -> u32 piece
                       Request/Cancel/Piece -> u32 piece u32 offset u32 length
                       Bitfield -> u16 len <len bytes>
                       otherwise empty
    block  := 0x04  f64 t  u16 peer  u16 remote  u32 piece u32 offset u32 len
    json   := 0x02  u32 len  <len utf-8 bytes>            (verbatim JSONL line)
    end    := 0x05  u32 events  u8 footer_state  <32-byte sha256>

``dir`` is 0 for ``msg_sent``, 1 for ``msg_recv``.  ``footer_state``
records what the source knew about its own footer: 0 — the JSONL source
had no ``trace_end`` footer (reconstruct none); 1 — the stored
fingerprint is authoritative; 2 — written by a live recorder that never
rendered JSON (the decoder computes the fingerprint, normalising the
trace to state 1 on the next round trip).

Any event that cannot be re-rendered byte-identically from packed fields
(foreign float formatting, unknown message, out-of-range index) falls
back to a verbatim ``json`` record, so conversion is lossless by
construction, not by convention.  Truncated or corrupt files raise
:class:`~repro.instrumentation.replay.TraceFormatError`.
"""

from __future__ import annotations

import hashlib
import json
import struct
from typing import IO, Dict, Iterable, List, Optional, Tuple, Union

from repro.instrumentation.replay import TraceFormatError
from repro.instrumentation.trace import (
    TRACE_SCHEMA_VERSION,
    TraceRecorder,
    block_line,
    message_tail,
    quote_address,
)
from repro.protocol.messages import (
    Bitfield as BitfieldMessage,
    Cancel,
    Choke,
    Have,
    Interested,
    KeepAlive,
    Message,
    NotInterested,
    Piece,
    Request,
    Unchoke,
)

BINTRACE_MAGIC = b"RBT1"

_TAG_MSG = 0x01
_TAG_JSON = 0x02
_TAG_ADDR = 0x03
_TAG_BLOCK = 0x04
_TAG_END = 0x05

# Message codes are positional in this tuple: the tuple is part of the
# wire format and must only ever be appended to.
_MSG_NAMES: Tuple[str, ...] = (
    "KeepAlive",
    "Choke",
    "Unchoke",
    "Interested",
    "NotInterested",
    "Have",
    "Bitfield",
    "Request",
    "Piece",
    "Cancel",
)
_MSG_CODES: Dict[str, int] = {name: code for code, name in enumerate(_MSG_NAMES)}
_CODE_BY_CLASS: Dict[type, int] = {
    KeepAlive: _MSG_CODES["KeepAlive"],
    Choke: _MSG_CODES["Choke"],
    Unchoke: _MSG_CODES["Unchoke"],
    Interested: _MSG_CODES["Interested"],
    NotInterested: _MSG_CODES["NotInterested"],
    Have: _MSG_CODES["Have"],
    BitfieldMessage: _MSG_CODES["Bitfield"],
    Request: _MSG_CODES["Request"],
    Piece: _MSG_CODES["Piece"],
    Cancel: _MSG_CODES["Cancel"],
}
_HAVE_CODE = _MSG_CODES["Have"]
_BITFIELD_CODE = _MSG_CODES["Bitfield"]
_TRIPLE_CODES = frozenset(
    (_MSG_CODES["Request"], _MSG_CODES["Piece"], _MSG_CODES["Cancel"])
)

_S_MSG = struct.Struct("<dHHBB")
_S_BLOCK = struct.Struct("<dHHIII")
_PIECE_CODE = _MSG_CODES["Piece"]
# Pre-fused tag+head(+payload) layouts for the live recorder's hot
# path: "<" means no padding, so one pack() emits byte-identical output
# to tag + _S_MSG.pack(...) + payload concatenation.
_S_TAG_MSG = struct.Struct("<BdHHBB")
_S_TAG_MSG_HAVE = struct.Struct("<BdHHBBI")
_S_TAG_MSG_TRIPLE = struct.Struct("<BdHHBBIII")
_S_TAG_BLOCK = struct.Struct("<BdHHIII")
_S_U16 = struct.Struct("<H")
_S_U32 = struct.Struct("<I")
_S_TRIPLE = struct.Struct("<III")
_S_END = struct.Struct("<IB")

_FOOTER_NONE = 0
_FOOTER_STORED = 1
_FOOTER_PENDING = 2

_DIR_NAMES = ("msg_sent", "msg_recv")


def _msg_line(
    t: float, direction: int, peer: str, remote: str, code: int, suffix: str
) -> str:
    """Render one message event exactly as the JSONL observer does."""
    return '{"t":%s,"type":"%s","peer":%s,"remote":%s,"msg":"%s"%s}' % (
        repr(t),
        _DIR_NAMES[direction],
        quote_address(peer),
        quote_address(remote),
        _MSG_NAMES[code],
        suffix,
    )


def _payload_suffix(code: int, payload: tuple) -> str:
    if code == _HAVE_CODE:
        return ',"piece":%d' % payload[0]
    if code in _TRIPLE_CODES:
        return ',"piece":%d,"offset":%d,"length":%d' % payload
    if code == _BITFIELD_CODE:
        return ',"bits":"%s"' % payload[0].hex()
    return ""


class BinaryTraceRecorder:
    """Live binary sink with the recorder surface TracingObserver needs.

    Beyond ``emit``/``emit_raw`` (shared with
    :class:`~repro.instrumentation.trace.TraceRecorder`), it offers the
    ``emit_message``/``emit_block`` fast paths that pack raw fields
    without ever rendering JSON.  Use :func:`binary_to_jsonl` to recover
    the equivalent JSONL trace — including the fingerprint a JSONL
    recorder would have computed.
    """

    def __init__(self, path: Optional[str] = None):
        self.path = str(path) if path is not None else None
        self._file: Optional[IO[bytes]] = (
            open(self.path, "wb") if self.path is not None else None
        )
        self._chunks: List[bytes] = []
        # Bound once: the hot emitters call it directly, skipping the
        # _write indirection on every record.
        self._sink = (
            self._file.write if self._file is not None else self._chunks.append
        )
        self._addr_ids: Dict[str, int] = {}
        self._events = 0
        self.closed = False
        self._write(BINTRACE_MAGIC)
        self._json_record(
            '{"type":"trace_start","v":%d}' % TRACE_SCHEMA_VERSION
        )

    # -- plumbing ----------------------------------------------------------

    def _write(self, data: bytes) -> None:
        self._sink(data)

    def _json_record(self, line: str) -> None:
        encoded = line.encode("utf-8")
        self._write(b"\x02" + _S_U32.pack(len(encoded)) + encoded)

    def _intern(self, address: str) -> int:
        addr_id = self._addr_ids.get(address)
        if addr_id is None:
            addr_id = len(self._addr_ids)
            if addr_id > 0xFFFF:
                raise TraceFormatError(
                    "binary traces support at most 65536 distinct addresses"
                )
            self._addr_ids[address] = addr_id
            encoded = address.encode("utf-8")
            self._write(
                b"\x03" + _S_U16.pack(addr_id) + bytes((len(encoded),)) + encoded
            )
        return addr_id

    # -- recorder surface --------------------------------------------------

    def emit(self, event: dict) -> None:
        """Append one event as a verbatim JSON record (cold paths)."""
        if self.closed:
            raise RuntimeError("binary trace recorder is closed")
        self._json_record(json.dumps(event, separators=(",", ":")))
        self._events += 1

    def emit_raw(self, line: str) -> None:
        """Append one pre-serialised JSONL line verbatim."""
        if self.closed:
            raise RuntimeError("binary trace recorder is closed")
        self._json_record(line)
        self._events += 1

    def emit_message(
        self, now: float, direction: int, peer: str, remote: str, message: Message
    ) -> None:
        """Hot path: pack one message event straight from its fields."""
        code = _CODE_BY_CLASS.get(type(message))
        if code is None:
            # Unknown message class: fall back to the rendered line the
            # JSONL observer would have produced (conversion stays exact).
            self.emit_raw(
                '{"t":%s,"type":"%s","peer":%s,"remote":%s%s'
                % (
                    repr(now),
                    _DIR_NAMES[direction],
                    quote_address(peer),
                    quote_address(remote),
                    message_tail(message),
                )
            )
            return
        addr_ids = self._addr_ids
        peer_id = addr_ids.get(peer)
        if peer_id is None:
            peer_id = self._intern(peer)
        remote_id = addr_ids.get(remote)
        if remote_id is None:
            remote_id = self._intern(remote)
        if code == _HAVE_CODE:
            record = _S_TAG_MSG_HAVE.pack(
                1, now, peer_id, remote_id, direction, code, message.piece
            )
        elif code in _TRIPLE_CODES:
            record = _S_TAG_MSG_TRIPLE.pack(
                1, now, peer_id, remote_id, direction, code,
                message.piece, message.offset,
                len(message.data) if code == _PIECE_CODE else message.length,
            )
        elif code == _BITFIELD_CODE:
            bits = message.bits
            record = (
                _S_TAG_MSG.pack(1, now, peer_id, remote_id, direction, code)
                + _S_U16.pack(len(bits))
                + bits
            )
        else:
            record = _S_TAG_MSG.pack(1, now, peer_id, remote_id, direction, code)
        self._sink(record)
        self._events += 1

    def emit_message_pair(
        self, now: float, sender: str, receiver: str, message: Message
    ) -> None:
        """One synchronous delivery's sent+received records, as
        :meth:`emit_message` writes them for the sent then the received
        side (the pairing of DESIGN §12)."""
        if type(message) is Have:
            self.emit_have_pair(now, sender, receiver, message.piece)
        else:
            self.emit_message(now, 0, sender, receiver, message)
            self.emit_message(now, 1, receiver, sender, message)

    def emit_have_pair(
        self, now: float, sender: str, receiver: str, piece: int
    ) -> None:
        """Hottest path: one call for a HAVE's sent+received record pair.

        Under synchronous delivery every HAVE a traced sender emits to a
        traced receiver sharing this recorder produces two adjacent
        records with mirrored addresses.  Packing both in one call
        halves the per-event Python call overhead of the single largest
        record population in a mega-swarm trace.  Byte-identical to
        ``emit_message`` called for the sent then the received side.
        """
        addr_ids = self._addr_ids
        sender_id = addr_ids.get(sender)
        if sender_id is None:
            sender_id = self._intern(sender)
        receiver_id = addr_ids.get(receiver)
        if receiver_id is None:
            receiver_id = self._intern(receiver)
        pack = _S_TAG_MSG_HAVE.pack
        self._sink(
            pack(1, now, sender_id, receiver_id, 0, _HAVE_CODE, piece)
            + pack(1, now, receiver_id, sender_id, 1, _HAVE_CODE, piece)
        )
        self._events += 2

    def emit_block(
        self, now: float, peer: str, remote: str, piece: int, offset: int, length: int
    ) -> None:
        """Hot path: pack one block-received event."""
        addr_ids = self._addr_ids
        peer_id = addr_ids.get(peer)
        if peer_id is None:
            peer_id = self._intern(peer)
        remote_id = addr_ids.get(remote)
        if remote_id is None:
            remote_id = self._intern(remote)
        self._sink(
            _S_TAG_BLOCK.pack(4, now, peer_id, remote_id, piece, offset, length)
        )
        self._events += 1

    @property
    def events_emitted(self) -> int:
        return self._events

    def close(self) -> None:
        """Write the end record (footer pending — the decoder computes
        the JSONL fingerprint).  Idempotent."""
        if self.closed:
            return
        self.closed = True
        self._write(
            b"\x05" + _S_END.pack(self._events, _FOOTER_PENDING) + b"\x00" * 32
        )
        if self._file is not None:
            self._file.close()
            self._file = None

    def getvalue(self) -> bytes:
        """The binary trace (in-memory recorders only)."""
        if self.path is not None:
            with open(self.path, "rb") as handle:
                return handle.read()
        return b"".join(self._chunks)

    def __enter__(self) -> "BinaryTraceRecorder":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ---------------------------------------------------------------------------
# JSONL -> binary
# ---------------------------------------------------------------------------

JsonlSource = Union[str, TraceRecorder, Iterable[str]]


def _jsonl_lines(source: JsonlSource) -> List[str]:
    if isinstance(source, TraceRecorder):
        lines = source.lines()
    elif isinstance(source, str):
        with open(source, encoding="utf-8") as handle:
            lines = [line.rstrip("\n") for line in handle]
    else:
        lines = [line.rstrip("\n") for line in source]
    return [line for line in lines if line]


def jsonl_to_binary(
    source: JsonlSource, path: Optional[str] = None
) -> Optional[bytes]:
    """Re-encode a JSONL trace as a binary trace.

    Every message/block event whose packed form re-renders to the exact
    original line is stored packed; anything else is stored verbatim, so
    :func:`binary_to_jsonl` always reproduces the input byte for byte.
    Returns the bytes, or writes them to *path* and returns ``None``.
    """
    lines = _jsonl_lines(source)
    if not lines:
        raise TraceFormatError("empty trace")
    out = bytearray(BINTRACE_MAGIC)
    addr_ids: Dict[str, int] = {}

    def intern(address: str) -> int:
        addr_id = addr_ids.get(address)
        if addr_id is None:
            addr_id = len(addr_ids)
            if addr_id > 0xFFFF:
                raise struct.error("address table overflow")
            addr_ids[address] = addr_id
            encoded = address.encode("utf-8")
            if len(encoded) > 0xFF:
                raise struct.error("address too long")
            out.extend(b"\x03" + _S_U16.pack(addr_id) + bytes((len(encoded),)))
            out.extend(encoded)
        return addr_id

    def json_record(line: str) -> None:
        encoded = line.encode("utf-8")
        out.extend(b"\x02" + _S_U32.pack(len(encoded)))
        out.extend(encoded)

    events = 0
    footer: Optional[dict] = None
    for index, line in enumerate(lines):
        try:
            event = json.loads(line)
        except ValueError:
            raise TraceFormatError("line %d is not valid JSON" % (index + 1))
        kind = event.get("type")
        if kind == "trace_end":
            if index != len(lines) - 1:
                raise TraceFormatError("data after trace_end footer")
            footer = event
            break
        if not (index == 0 and kind == "trace_start"):
            events += 1
        packed = _try_pack_event(event, kind, line, intern, len(addr_ids))
        if packed is not None:
            out.extend(packed)
        else:
            json_record(line)
    if footer is not None:
        try:
            count = int(footer["events"])
            fingerprint = bytes.fromhex(footer["fingerprint"])
            if len(fingerprint) != 32:
                raise ValueError
        except (KeyError, TypeError, ValueError):
            raise TraceFormatError("malformed trace_end footer")
        if count != events:
            raise TraceFormatError(
                "footer says %d events, found %d" % (count, events)
            )
        out.extend(b"\x05" + _S_END.pack(events, _FOOTER_STORED) + fingerprint)
    else:
        out.extend(b"\x05" + _S_END.pack(events, _FOOTER_NONE) + b"\x00" * 32)
    data = bytes(out)
    if path is not None:
        with open(path, "wb") as handle:
            handle.write(data)
        return None
    return data


def _try_pack_event(event, kind, line, intern, table_size):
    """Packed record for a message/block event — or None to store the
    line verbatim.  The packed form is accepted only if re-rendering it
    reproduces *line* exactly (interning is rolled back on rejection by
    the caller never seeing new ids: we pre-render before interning)."""
    try:
        if kind in ("msg_sent", "msg_recv"):
            code = _MSG_CODES.get(event["msg"])
            if code is None:
                return None
            t = event["t"]
            peer, remote = event["peer"], event["remote"]
            direction = 0 if kind == "msg_sent" else 1
            if code == _HAVE_CODE:
                payload_fields = (event["piece"],)
                payload = _S_U32.pack(event["piece"])
            elif code in _TRIPLE_CODES:
                payload_fields = (
                    event["piece"],
                    event["offset"],
                    event["length"],
                )
                payload = _S_TRIPLE.pack(*payload_fields)
            elif code == _BITFIELD_CODE:
                bits = bytes.fromhex(event["bits"])
                if len(bits) > 0xFFFF:
                    return None
                payload_fields = (bits,)
                payload = _S_U16.pack(len(bits)) + bits
            else:
                payload_fields = ()
                payload = b""
            rendered = _msg_line(
                t, direction, peer, remote, code, _payload_suffix(code, payload_fields)
            )
            if rendered != line:
                return None
            head = _S_MSG.pack(t, intern(peer), intern(remote), direction, code)
            return b"\x01" + head + payload
        if kind == "block":
            t = event["t"]
            peer, remote = event["peer"], event["remote"]
            piece, offset, length = (
                event["piece"],
                event["offset"],
                event["length"],
            )
            if block_line(t, peer, remote, piece, offset, length) != line:
                return None
            return b"\x04" + _S_BLOCK.pack(
                t, intern(peer), intern(remote), piece, offset, length
            )
    except (KeyError, TypeError, ValueError, struct.error):
        return None
    return None


# ---------------------------------------------------------------------------
# binary -> JSONL
# ---------------------------------------------------------------------------

BinarySource = Union[str, bytes, BinaryTraceRecorder]


def binary_to_jsonl(
    source: BinarySource, path: Optional[str] = None
) -> List[str]:
    """Decode a binary trace back to its JSONL lines.

    *source* is a file path, raw bytes, or a closed
    :class:`BinaryTraceRecorder`.  Truncated or corrupt input raises
    :class:`~repro.instrumentation.replay.TraceFormatError`.  When the
    binary end record is fingerprint-pending (a live binary recorder),
    the JSONL fingerprint is computed here, yielding the byte-identical
    footer a JSONL recorder would have written.  With *path* the lines
    are also written out as a JSONL file.
    """
    if isinstance(source, BinaryTraceRecorder):
        data = source.getvalue()
    elif isinstance(source, str):
        with open(source, "rb") as handle:
            data = handle.read()
    else:
        data = source
    if data[:4] != BINTRACE_MAGIC:
        raise TraceFormatError("not a binary trace (bad magic)")
    size = len(data)
    pos = 4
    addresses: Dict[int, str] = {}
    lines: List[str] = []
    end: Optional[Tuple[int, int, bytes]] = None

    def need(count: int) -> int:
        if pos + count > size:
            raise TraceFormatError("truncated binary trace")
        return pos + count

    while pos < size:
        tag = data[pos]
        pos += 1
        if tag == _TAG_MSG:
            next_pos = need(_S_MSG.size)
            t, peer_id, remote_id, direction, code = _S_MSG.unpack_from(
                data, pos
            )
            pos = next_pos
            if direction > 1 or code >= len(_MSG_NAMES):
                raise TraceFormatError("corrupt message record")
            if code == _HAVE_CODE:
                next_pos = need(_S_U32.size)
                payload_fields = _S_U32.unpack_from(data, pos)
                pos = next_pos
            elif code in _TRIPLE_CODES:
                next_pos = need(_S_TRIPLE.size)
                payload_fields = _S_TRIPLE.unpack_from(data, pos)
                pos = next_pos
            elif code == _BITFIELD_CODE:
                next_pos = need(_S_U16.size)
                (bits_len,) = _S_U16.unpack_from(data, pos)
                pos = next_pos
                next_pos = need(bits_len)
                payload_fields = (data[pos:next_pos],)
                pos = next_pos
            else:
                payload_fields = ()
            try:
                peer = addresses[peer_id]
                remote = addresses[remote_id]
            except KeyError:
                raise TraceFormatError("message references unknown address id")
            lines.append(
                _msg_line(
                    t,
                    direction,
                    peer,
                    remote,
                    code,
                    _payload_suffix(code, payload_fields),
                )
            )
        elif tag == _TAG_JSON:
            next_pos = need(_S_U32.size)
            (length,) = _S_U32.unpack_from(data, pos)
            pos = next_pos
            next_pos = need(length)
            try:
                lines.append(data[pos:next_pos].decode("utf-8"))
            except UnicodeDecodeError:
                raise TraceFormatError("corrupt JSON record")
            pos = next_pos
        elif tag == _TAG_ADDR:
            next_pos = need(_S_U16.size + 1)
            (addr_id,) = _S_U16.unpack_from(data, pos)
            length = data[pos + 2]
            pos = next_pos
            next_pos = need(length)
            if addr_id in addresses:
                raise TraceFormatError("duplicate address id %d" % addr_id)
            try:
                addresses[addr_id] = data[pos:next_pos].decode("utf-8")
            except UnicodeDecodeError:
                raise TraceFormatError("corrupt address record")
            pos = next_pos
        elif tag == _TAG_BLOCK:
            next_pos = need(_S_BLOCK.size)
            t, peer_id, remote_id, piece, offset, length = _S_BLOCK.unpack_from(
                data, pos
            )
            pos = next_pos
            try:
                peer = addresses[peer_id]
                remote = addresses[remote_id]
            except KeyError:
                raise TraceFormatError("block references unknown address id")
            lines.append(block_line(t, peer, remote, piece, offset, length))
        elif tag == _TAG_END:
            next_pos = need(_S_END.size + 32)
            count, footer_state = _S_END.unpack_from(data, pos)
            fingerprint = data[pos + _S_END.size : next_pos]
            pos = next_pos
            if pos != size:
                raise TraceFormatError("data after end record")
            end = (count, footer_state, fingerprint)
        else:
            raise TraceFormatError("unknown record tag 0x%02x" % tag)
    if end is None:
        raise TraceFormatError("missing end record (truncated trace?)")
    count, footer_state, fingerprint = end
    events = len(lines)
    if lines:
        try:
            if json.loads(lines[0]).get("type") == "trace_start":
                events -= 1
        except ValueError:
            pass
    if events != count:
        raise TraceFormatError(
            "end record says %d events, found %d" % (count, events)
        )
    if footer_state == _FOOTER_STORED:
        lines.append(
            '{"type":"trace_end","events":%d,"fingerprint":"%s"}'
            % (count, fingerprint.hex())
        )
    elif footer_state == _FOOTER_PENDING:
        hasher = hashlib.sha256()
        for line in lines:
            hasher.update(line.encode("utf-8"))
            hasher.update(b"\n")
        lines.append(
            '{"type":"trace_end","events":%d,"fingerprint":"%s"}'
            % (count, hasher.hexdigest())
        )
    elif footer_state != _FOOTER_NONE:
        raise TraceFormatError("unknown footer state %d" % footer_state)
    if path is not None:
        with open(path, "wb") as handle:
            handle.write("".join(line + "\n" for line in lines).encode("utf-8"))
    return lines
