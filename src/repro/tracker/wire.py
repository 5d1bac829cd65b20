"""Tracker wire format: bencoded announce responses (BEP 3 / BEP 23).

Real trackers answer HTTP announces with a bencoded dictionary; the
*compact* format (BEP 23, universally used) packs each peer into 6
bytes: 4-byte big-endian IPv4 address + 2-byte big-endian port.  The
simulator exchanges peer lists directly.  The announce server writes
the answer (:func:`repro.tracker.server.encode_result`); this module
holds the answer's type, its decoder and the failure response.
"""

from __future__ import annotations

import socket
import struct
from dataclasses import dataclass
from typing import List, Tuple

from repro.protocol.bencode import BencodeError, bdecode, bencode

DEFAULT_INTERVAL = 30 * 60  # the paper's 30-minute re-announce period


@dataclass(frozen=True)
class AnnounceResponse:
    """A tracker's answer to an announce."""

    interval: int
    complete: int
    """Number of seeds."""

    incomplete: int
    """Number of leechers."""

    peers: List[Tuple[str, int]]
    """(dotted-quad IPv4, port) pairs."""


def unpack_peers(data: bytes) -> List[Tuple[str, int]]:
    """The ``(address, port)`` pairs of a BEP 23 compact peer list, 6
    bytes per peer (the blob :func:`repro.tracker.server.compact_peers`
    writes)."""
    if len(data) % 6:
        raise ValueError("compact peer blob length is not a multiple of 6")
    peers = []
    for offset in range(0, len(data), 6):
        address = socket.inet_ntoa(data[offset : offset + 4])
        (port,) = struct.unpack(">H", data[offset + 4 : offset + 6])
        peers.append((address, port))
    return peers


def decode_announce_response(data: bytes) -> AnnounceResponse:
    """Parse a compact-form announce response.

    Raises :class:`ValueError` — and nothing else — on malformed input,
    including tracker *failure responses* (dictionaries with a
    ``failure reason`` key) and values of the wrong type.
    """
    try:
        top = bdecode(data)
    except BencodeError as exc:
        raise ValueError("not a bencoded tracker response: %s" % exc) from exc
    if not isinstance(top, dict):
        raise ValueError("tracker response is not a dictionary")
    if b"failure reason" in top:
        reason = top[b"failure reason"]
        if not isinstance(reason, bytes):
            raise ValueError("tracker failure reason is not a byte string")
        raise ValueError("tracker failure: %s" % reason.decode("utf-8", "replace"))
    for key in (b"interval", b"peers"):
        if key not in top:
            raise ValueError("missing tracker response key %r" % key)
    interval = top[b"interval"]
    peers = top[b"peers"]
    complete = top.get(b"complete", 0)
    incomplete = top.get(b"incomplete", 0)
    if not (
        isinstance(interval, int)
        and isinstance(complete, int)
        and isinstance(incomplete, int)
        and isinstance(peers, bytes)
    ):
        raise ValueError("tracker response value of the wrong type")
    return AnnounceResponse(
        interval=interval,
        complete=complete,
        incomplete=incomplete,
        peers=unpack_peers(peers),
    )


def encode_failure(reason: str) -> bytes:
    """A tracker failure response."""
    return bencode({b"failure reason": reason.encode("utf-8")})
