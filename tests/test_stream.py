"""Tests for the incremental peer-wire stream decoder and tracker wire."""

import pytest
from hypothesis import given, strategies as st

from repro.protocol.messages import (
    Bitfield,
    Choke,
    Handshake,
    Have,
    Interested,
    KeepAlive,
    MessageError,
    Piece,
    Request,
    Unchoke,
)
from repro.protocol.bencode import bencode
from repro.protocol.stream import MessageStream
from repro.tracker.server import compact_peers, encode_result
from repro.tracker.service import AnnounceResult
from repro.tracker.wire import (
    AnnounceResponse,
    decode_announce_response,
    encode_failure,
    unpack_peers,
)

from tests.test_bencode import bencodable
from tests.probes import buffered_bytes

HANDSHAKE = Handshake(info_hash=b"h" * 20, peer_id=b"p" * 20)


def encode_session(messages, handshake=None) -> bytes:
    """A whole session's outbound byte stream: the handshake, if any,
    then every message's frame."""
    prefix = handshake.encode() if handshake is not None else b""
    return prefix + b"".join(message.encode() for message in messages)


MESSAGES = [
    Choke(),
    Unchoke(),
    Interested(),
    Have(piece=42),
    Bitfield(bits=b"\xf0"),
    Request(piece=1, offset=0, length=16384),
    Piece(piece=1, offset=0, data=b"x" * 64),
    KeepAlive(),
]


class TestMessageStream:
    def test_whole_session_at_once(self):
        stream = MessageStream()
        wire = encode_session(MESSAGES, handshake=HANDSHAKE)
        out = stream.feed(wire)
        assert out[0] == HANDSHAKE
        assert out[1:] == MESSAGES
        assert buffered_bytes(stream) == 0
        assert stream.bytes_consumed == len(wire)

    def test_byte_at_a_time(self):
        stream = MessageStream()
        wire = encode_session(MESSAGES, handshake=HANDSHAKE)
        out = []
        for index in range(len(wire)):
            out.extend(stream.feed(wire[index : index + 1]))
        assert out[0] == HANDSHAKE
        assert out[1:] == MESSAGES

    def test_without_handshake(self):
        stream = MessageStream(expect_handshake=False)
        out = stream.feed(encode_session(MESSAGES))
        assert out == MESSAGES
        assert stream.handshake is None

    def test_partial_frame_buffers(self):
        stream = MessageStream(expect_handshake=False)
        wire = Have(piece=7).encode()
        assert stream.feed(wire[:-1]) == []
        assert buffered_bytes(stream) == len(wire) - 1
        assert stream.feed(wire[-1:]) == [Have(piece=7)]

    def test_handshake_recorded(self):
        stream = MessageStream()
        stream.feed(HANDSHAKE.encode())
        assert stream.handshake == HANDSHAKE

    def test_oversized_frame_rejected(self):
        stream = MessageStream(expect_handshake=False)
        with pytest.raises(MessageError):
            stream.feed((2 << 20).to_bytes(4, "big"))

    def test_bad_handshake_raises(self):
        stream = MessageStream()
        with pytest.raises(MessageError):
            stream.feed(b"\x00" * 68)


@given(st.lists(st.sampled_from(MESSAGES), max_size=20), st.data())
def test_property_arbitrary_fragmentation(messages, data):
    """Any fragmentation of any message sequence reassembles exactly."""
    wire = encode_session(messages, handshake=HANDSHAKE)
    stream = MessageStream()
    out = []
    position = 0
    while position < len(wire):
        step = data.draw(st.integers(1, max(1, len(wire) - position)))
        out.extend(stream.feed(wire[position : position + step]))
        position += step
    assert out[0] == HANDSHAKE
    assert out[1:] == messages


class TestCompactPeers:
    def test_roundtrip(self):
        peers = [("10.0.0.1", 6881), ("192.168.1.2", 51413)]
        assert unpack_peers(compact_peers(["10.0.0.1:6881", "192.168.1.2:51413"])) == peers

    def test_six_bytes_per_peer(self):
        assert len(compact_peers(["1.2.3.4:80"])) == 6

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError):
            unpack_peers(b"\x00" * 5)

    def test_bad_port_rejected(self):
        assert compact_peers(["1.2.3.4:0", "1.2.3.4:70000"]) == b""

    @given(
        st.lists(
            st.tuples(
                st.tuples(
                    st.integers(0, 255), st.integers(0, 255),
                    st.integers(0, 255), st.integers(0, 255),
                ).map(lambda q: "%d.%d.%d.%d" % q),
                st.integers(1, 65535),
            ),
            max_size=30,
        )
    )
    def test_property_roundtrip(self, peers):
        assert unpack_peers(compact_peers("%s:%d" % peer for peer in peers)) == peers


class TestAnnounceResponse:
    def test_roundtrip(self):
        result = AnnounceResult(
            peers=["10.0.0.1:6881", "10.0.0.2:6882"],
            interval=1800,
            seeds=3,
            leechers=14,
        )
        assert decode_announce_response(encode_result(result)) == AnnounceResponse(
            interval=1800,
            complete=3,
            incomplete=14,
            peers=[("10.0.0.1", 6881), ("10.0.0.2", 6882)],
        )

    def test_failure_response_raises(self):
        with pytest.raises(ValueError, match="torrent not registered"):
            decode_announce_response(encode_failure("torrent not registered"))

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            decode_announce_response(b"garbage")
        with pytest.raises(ValueError):
            decode_announce_response(b"le")
        with pytest.raises(ValueError):
            decode_announce_response(b"de")

    @pytest.mark.parametrize(
        "body",
        [
            b"l" * 100_000,  # was RecursionError, from bdecode
            b"d14:failure reasoni5ee",  # was AttributeError
            b"d8:intervali5e5:peersi3ee",  # was TypeError
        ],
        ids=["deep-nest", "int-failure-reason", "int-peers"],
    )
    def test_hostile_bodies_raise_value_error(self, body):
        with pytest.raises(ValueError):
            decode_announce_response(body)

    @given(st.binary(max_size=64))
    def test_arbitrary_bytes_raise_only_value_error(self, data):
        try:
            decode_announce_response(data)
        except ValueError:
            pass

    @given(
        st.fixed_dictionaries(
            {},
            optional={
                key: bencodable
                for key in (
                    b"failure reason",
                    b"interval",
                    b"peers",
                    b"complete",
                    b"incomplete",
                )
            },
        )
    )
    def test_wrong_typed_values_raise_only_value_error(self, top):
        try:
            response = decode_announce_response(bencode(top))
        except ValueError:
            return
        assert b"failure reason" not in top
        assert response.interval == top[b"interval"]
        assert response.peers == unpack_peers(top[b"peers"])
