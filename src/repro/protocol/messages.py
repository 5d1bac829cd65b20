"""BitTorrent peer-wire messages (BEP 3).

Every message after the handshake has the frame ``<length: u32 big-endian>
<id: u8> <payload>``; keep-alive is a zero-length frame with no id.  This
module defines one dataclass per message plus binary ``encode`` /
:func:`decode_message` round-trips.  The simulator passes message objects
directly between peers (the wire encoding is exercised by tests and by the
instrumentation layer, which records wire sizes for byte accounting).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import ClassVar, Dict, Type

PROTOCOL_STRING = b"BitTorrent protocol"
HANDSHAKE_LENGTH = 49 + len(PROTOCOL_STRING)


class MessageError(ValueError):
    """Raised when a wire buffer cannot be decoded into a message."""


@dataclass(frozen=True)
class Handshake:
    """The connection-opening handshake (not length-prefixed)."""

    info_hash: bytes
    peer_id: bytes
    reserved: bytes = b"\x00" * 8

    def __post_init__(self) -> None:
        if len(self.info_hash) != 20:
            raise MessageError("info_hash must be 20 bytes")
        if len(self.peer_id) != 20:
            raise MessageError("peer_id must be 20 bytes")
        if len(self.reserved) != 8:
            raise MessageError("reserved field must be 8 bytes")

    def encode(self) -> bytes:
        return (
            bytes([len(PROTOCOL_STRING)])
            + PROTOCOL_STRING
            + self.reserved
            + self.info_hash
            + self.peer_id
        )

    @classmethod
    def decode(cls, data: bytes) -> "Handshake":
        if len(data) != HANDSHAKE_LENGTH:
            raise MessageError(
                "handshake is %d bytes, expected %d" % (len(data), HANDSHAKE_LENGTH)
            )
        pstrlen = data[0]
        if pstrlen != len(PROTOCOL_STRING) or data[1 : 1 + pstrlen] != PROTOCOL_STRING:
            raise MessageError("unknown protocol string")
        base = 1 + pstrlen
        return cls(
            reserved=data[base : base + 8],
            info_hash=data[base + 8 : base + 28],
            peer_id=data[base + 28 : base + 48],
        )


@dataclass(frozen=True)
class Message:
    """Base class for length-prefixed peer-wire messages."""

    MESSAGE_ID: ClassVar[int] = -1

    def payload(self) -> bytes:
        return b""

    def encode(self) -> bytes:
        body = self.payload()
        return struct.pack(">IB", 1 + len(body), self.MESSAGE_ID) + body


@dataclass(frozen=True)
class KeepAlive(Message):
    """Zero-length frame; keeps idle connections open."""

    def encode(self) -> bytes:
        return struct.pack(">I", 0)


@dataclass(frozen=True)
class Choke(Message):
    MESSAGE_ID: ClassVar[int] = 0


@dataclass(frozen=True)
class Unchoke(Message):
    MESSAGE_ID: ClassVar[int] = 1


@dataclass(frozen=True)
class Interested(Message):
    MESSAGE_ID: ClassVar[int] = 2


@dataclass(frozen=True)
class NotInterested(Message):
    MESSAGE_ID: ClassVar[int] = 3


@dataclass(frozen=True)
class Have(Message):
    """Announces that the sender completed (and verified) one piece."""

    MESSAGE_ID: ClassVar[int] = 4
    piece: int = 0

    def payload(self) -> bytes:
        return struct.pack(">I", self.piece)


@dataclass(frozen=True)
class Bitfield(Message):
    """The sender's full piece bitmap; sent right after the handshake."""

    MESSAGE_ID: ClassVar[int] = 5
    bits: bytes = b""

    def payload(self) -> bytes:
        return self.bits


@dataclass(frozen=True)
class Request(Message):
    """Asks for one block: (piece index, byte offset, length)."""

    MESSAGE_ID: ClassVar[int] = 6
    piece: int = 0
    offset: int = 0
    length: int = 0

    def payload(self) -> bytes:
        return struct.pack(">III", self.piece, self.offset, self.length)


@dataclass(frozen=True)
class Piece(Message):
    """Carries one block of data."""

    MESSAGE_ID: ClassVar[int] = 7
    piece: int = 0
    offset: int = 0
    data: bytes = b""

    def payload(self) -> bytes:
        return struct.pack(">II", self.piece, self.offset) + self.data


@dataclass(frozen=True)
class Cancel(Message):
    """Cancels a pending Request; the workhorse of end-game mode."""

    MESSAGE_ID: ClassVar[int] = 8
    piece: int = 0
    offset: int = 0
    length: int = 0

    def payload(self) -> bytes:
        return struct.pack(">III", self.piece, self.offset, self.length)


_MESSAGE_TYPES: Dict[int, Type[Message]] = {
    cls.MESSAGE_ID: cls
    for cls in (
        Choke,
        Unchoke,
        Interested,
        NotInterested,
        Have,
        Bitfield,
        Request,
        Piece,
        Cancel,
    )
}


def decode_message(data: bytes) -> Message:
    """Decode one complete length-prefixed frame into a message object."""
    if len(data) < 4:
        raise MessageError("frame shorter than length prefix")
    (length,) = struct.unpack(">I", data[:4])
    if len(data) != 4 + length:
        raise MessageError(
            "frame length mismatch: prefix says %d, got %d payload bytes"
            % (length, len(data) - 4)
        )
    if length == 0:
        return KeepAlive()
    message_id = data[4]
    body = data[5:]
    cls = _MESSAGE_TYPES.get(message_id)
    if cls is None:
        raise MessageError("unknown message id %d" % message_id)
    if cls in (Choke, Unchoke, Interested, NotInterested):
        if body:
            raise MessageError("%s carries unexpected payload" % cls.__name__)
        return cls()
    if cls is Have:
        if len(body) != 4:
            raise MessageError("HAVE payload must be 4 bytes")
        return Have(piece=struct.unpack(">I", body)[0])
    if cls is Bitfield:
        return Bitfield(bits=body)
    if cls is Request or cls is Cancel:
        if len(body) != 12:
            raise MessageError("%s payload must be 12 bytes" % cls.__name__)
        piece, offset, block_length = struct.unpack(">III", body)
        return cls(piece=piece, offset=offset, length=block_length)
    if cls is Piece:
        if len(body) < 8:
            raise MessageError("PIECE payload must be at least 8 bytes")
        piece, offset = struct.unpack(">II", body[:8])
        return Piece(piece=piece, offset=offset, data=body[8:])
    raise MessageError("unhandled message id %d" % message_id)  # pragma: no cover
