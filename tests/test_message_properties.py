"""Round-trip property tests for every peer-wire message dataclass.

``encode`` → ``decode_message`` → equality for the full message
catalogue, including the edge payloads the live layer actually produces
(empty bitfields from fresh leechers, zero-length PIECE blocks, maximal
piece indices) — plus the regression guard that ``Handshake.decode``
rejects short buffers instead of silently truncating.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.protocol.messages import (
    HANDSHAKE_LENGTH,
    Bitfield,
    Cancel,
    Choke,
    Handshake,
    Have,
    Interested,
    KeepAlive,
    MessageError,
    NotInterested,
    Piece,
    Request,
    Unchoke,
    decode_message,
)

from tests.probes import wire_length

MAX_U32 = 2**32 - 1
U32 = st.integers(min_value=0, max_value=MAX_U32)


def roundtrip(message):
    return decode_message(message.encode())


class TestRoundTripProperties:
    @pytest.mark.parametrize(
        "message",
        [Choke(), Unchoke(), Interested(), NotInterested(), KeepAlive()],
    )
    def test_payloadless_messages(self, message):
        assert roundtrip(message) == message

    @settings(max_examples=100, deadline=None)
    @given(piece=U32)
    def test_have(self, piece):
        assert roundtrip(Have(piece=piece)) == Have(piece=piece)

    @settings(max_examples=100, deadline=None)
    @given(bits=st.binary(max_size=256))
    def test_bitfield(self, bits):
        assert roundtrip(Bitfield(bits=bits)) == Bitfield(bits=bits)

    @settings(max_examples=100, deadline=None)
    @given(piece=U32, offset=U32, length=U32)
    def test_request(self, piece, offset, length):
        message = Request(piece=piece, offset=offset, length=length)
        assert roundtrip(message) == message

    @settings(max_examples=100, deadline=None)
    @given(piece=U32, offset=U32, length=U32)
    def test_cancel(self, piece, offset, length):
        message = Cancel(piece=piece, offset=offset, length=length)
        assert roundtrip(message) == message

    @settings(max_examples=100, deadline=None)
    @given(piece=U32, offset=U32, data=st.binary(max_size=512))
    def test_piece(self, piece, offset, data):
        message = Piece(piece=piece, offset=offset, data=data)
        assert roundtrip(message) == message

    @settings(max_examples=100, deadline=None)
    @given(
        info_hash=st.binary(min_size=20, max_size=20),
        peer_id=st.binary(min_size=20, max_size=20),
        reserved=st.binary(min_size=8, max_size=8),
    )
    def test_handshake(self, info_hash, peer_id, reserved):
        shake = Handshake(info_hash=info_hash, peer_id=peer_id, reserved=reserved)
        assert Handshake.decode(shake.encode()) == shake


class TestEdgePayloads:
    def test_empty_bitfield(self):
        assert roundtrip(Bitfield(bits=b"")) == Bitfield(bits=b"")

    def test_zero_length_piece_block(self):
        message = Piece(piece=0, offset=0, data=b"")
        assert roundtrip(message) == message
        assert wire_length(message) == 4 + 1 + 8

    def test_max_piece_index(self):
        assert roundtrip(Have(piece=MAX_U32)) == Have(piece=MAX_U32)
        message = Request(piece=MAX_U32, offset=MAX_U32, length=MAX_U32)
        assert roundtrip(message) == message

    @settings(max_examples=100, deadline=None)
    @given(length=st.integers(min_value=0, max_value=HANDSHAKE_LENGTH - 1))
    def test_handshake_rejects_short_buffers(self, length):
        """Regression: short handshakes must raise, never truncate-decode."""
        wire = Handshake(info_hash=b"h" * 20, peer_id=b"p" * 20).encode()
        with pytest.raises(MessageError):
            Handshake.decode(wire[:length])

    def test_handshake_rejects_long_buffers(self):
        wire = Handshake(info_hash=b"h" * 20, peer_id=b"p" * 20).encode()
        with pytest.raises(MessageError):
            Handshake.decode(wire + b"\x00")
