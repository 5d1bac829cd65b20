"""Unit and property tests for peer-wire message encoding."""

import struct

import pytest
from hypothesis import given, strategies as st

from repro.protocol.messages import (
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


class TestHandshake:
    def test_roundtrip(self):
        hs = Handshake(info_hash=b"h" * 20, peer_id=b"p" * 20)
        assert Handshake.decode(hs.encode()) == hs

    def test_length(self):
        hs = Handshake(info_hash=b"h" * 20, peer_id=b"p" * 20)
        assert len(hs.encode()) == 68

    def test_validation(self):
        with pytest.raises(MessageError):
            Handshake(info_hash=b"short", peer_id=b"p" * 20)
        with pytest.raises(MessageError):
            Handshake(info_hash=b"h" * 20, peer_id=b"short")
        with pytest.raises(MessageError):
            Handshake(info_hash=b"h" * 20, peer_id=b"p" * 20, reserved=b"x")

    def test_bad_protocol_string(self):
        hs = Handshake(info_hash=b"h" * 20, peer_id=b"p" * 20)
        data = bytearray(hs.encode())
        data[1] ^= 0xFF
        with pytest.raises(MessageError):
            Handshake.decode(bytes(data))

    def test_wrong_length(self):
        with pytest.raises(MessageError):
            Handshake.decode(b"\x13BitTorrent protocol")


class TestStateMessages:
    @pytest.mark.parametrize(
        "message,message_id",
        [(Choke(), 0), (Unchoke(), 1), (Interested(), 2), (NotInterested(), 3)],
    )
    def test_roundtrip(self, message, message_id):
        wire = message.encode()
        assert wire == struct.pack(">IB", 1, message_id)
        assert decode_message(wire) == message
        assert wire_length(message) == len(wire)

    def test_keepalive(self):
        wire = KeepAlive().encode()
        assert wire == b"\x00\x00\x00\x00"
        assert decode_message(wire) == KeepAlive()
        assert wire_length(KeepAlive()) == 4

    def test_state_message_with_payload_rejected(self):
        wire = struct.pack(">IB", 2, 0) + b"x"
        with pytest.raises(MessageError):
            decode_message(wire)


class TestPayloadMessages:
    def test_have_roundtrip(self):
        message = Have(piece=1234)
        assert decode_message(message.encode()) == message

    def test_have_bad_length(self):
        wire = struct.pack(">IB", 3, 4) + b"ab"
        with pytest.raises(MessageError):
            decode_message(wire)

    def test_bitfield_roundtrip(self):
        message = Bitfield(bits=b"\xf0\x0f")
        decoded = decode_message(message.encode())
        assert decoded == message

    def test_request_roundtrip(self):
        message = Request(piece=3, offset=16384, length=16384)
        assert decode_message(message.encode()) == message

    def test_cancel_roundtrip(self):
        message = Cancel(piece=3, offset=16384, length=16384)
        decoded = decode_message(message.encode())
        assert decoded == message
        assert isinstance(decoded, Cancel)

    def test_request_bad_length(self):
        wire = struct.pack(">IB", 5, 6) + b"abcd"
        with pytest.raises(MessageError):
            decode_message(wire)

    def test_piece_roundtrip(self):
        message = Piece(piece=2, offset=32768, data=b"payload")
        decoded = decode_message(message.encode())
        assert decoded == message
        assert decoded.data == b"payload"

    def test_piece_wire_length_includes_data(self):
        message = Piece(piece=0, offset=0, data=b"x" * 100)
        assert wire_length(message) == 4 + 1 + 8 + 100

    def test_piece_too_short(self):
        wire = struct.pack(">IB", 5, 7) + b"abcd"
        with pytest.raises(MessageError):
            decode_message(wire)


class TestDecodeErrors:
    def test_too_short(self):
        with pytest.raises(MessageError):
            decode_message(b"\x00")

    def test_length_mismatch(self):
        with pytest.raises(MessageError):
            decode_message(struct.pack(">IB", 10, 0))

    def test_unknown_id(self):
        wire = struct.pack(">IB", 1, 99)
        with pytest.raises(MessageError):
            decode_message(wire)


@given(st.integers(0, 2**32 - 1))
def test_property_have_roundtrip(piece):
    assert decode_message(Have(piece=piece).encode()) == Have(piece=piece)


@given(
    st.integers(0, 2**32 - 1),
    st.integers(0, 2**32 - 1),
    st.integers(0, 2**32 - 1),
)
def test_property_request_roundtrip(piece, offset, length):
    message = Request(piece=piece, offset=offset, length=length)
    assert decode_message(message.encode()) == message


@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1), st.binary(max_size=256))
def test_property_piece_roundtrip(piece, offset, data):
    message = Piece(piece=piece, offset=offset, data=data)
    assert decode_message(message.encode()) == message


@given(st.binary(max_size=64))
def test_property_bitfield_roundtrip(bits):
    message = Bitfield(bits=bits)
    assert decode_message(message.encode()) == message
