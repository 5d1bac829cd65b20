"""Incremental peer-wire stream decoding.

A TCP peer connection delivers an arbitrary byte stream; messages must
be reassembled from the length-prefixed frames of BEP 3 (with the
unframed handshake first).  :class:`MessageStream` is the state machine
a real client (or a packet-level simulator) feeds received bytes into;
it yields complete :class:`~repro.protocol.messages.Message` objects as
they become available and tolerates arbitrary fragmentation.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from repro.protocol.messages import (
    HANDSHAKE_LENGTH,
    Handshake,
    MessageError,
    decode_message,
)

MAX_FRAME_LENGTH = 1 << 20  # generous: a 16 kiB block + headers is typical


class MessageStream:
    """Reassembles handshake + messages from a fragmented byte stream.

    >>> stream = MessageStream()
    >>> wire = Handshake(info_hash=b"h"*20, peer_id=b"p"*20).encode()
    >>> stream.feed(wire[:10])   # partial delivery yields nothing yet
    []
    >>> [type(m).__name__ for m in stream.feed(wire[10:])]
    ['Handshake']
    """

    def __init__(self, expect_handshake: bool = True):
        self._buffer = bytearray()
        self._awaiting_handshake = expect_handshake
        self.handshake: Optional[Handshake] = None
        self.bytes_consumed = 0

    def feed(self, data: bytes) -> List[object]:
        """Append *data* and return every message completed by it."""
        self._buffer.extend(data)
        return list(self._drain())

    def _drain(self) -> Iterator[object]:
        while True:
            if self._awaiting_handshake:
                if len(self._buffer) < HANDSHAKE_LENGTH:
                    return
                raw = bytes(self._buffer[:HANDSHAKE_LENGTH])
                del self._buffer[:HANDSHAKE_LENGTH]
                self.bytes_consumed += HANDSHAKE_LENGTH
                self.handshake = Handshake.decode(raw)
                self._awaiting_handshake = False
                yield self.handshake
                continue
            if len(self._buffer) < 4:
                return
            length = int.from_bytes(self._buffer[:4], "big")
            if length > MAX_FRAME_LENGTH:
                raise MessageError(
                    "frame of %d bytes exceeds the %d-byte limit"
                    % (length, MAX_FRAME_LENGTH)
                )
            total = 4 + length
            if len(self._buffer) < total:
                return
            frame = bytes(self._buffer[:total])
            del self._buffer[:total]
            self.bytes_consumed += total
            yield decode_message(frame)
