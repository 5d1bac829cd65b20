"""Property/fuzz tests for the incremental peer-wire stream decoder.

The live networking layer feeds raw socket chunks straight into
:class:`~repro.protocol.stream.MessageStream`, so the decoder must be
fragmentation-proof: any re-chunking of a valid byte stream yields the
identical message list, and malformed frames fail loudly *without*
corrupting the frames queued behind them.
"""

from hypothesis import given, settings, strategies as st
import pytest

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
)
from repro.protocol.stream import MAX_FRAME_LENGTH, MessageStream

from tests.test_stream import encode_session
from tests.probes import buffered_bytes

HANDSHAKE = Handshake(info_hash=b"h" * 20, peer_id=b"p" * 20)

U32 = st.integers(min_value=0, max_value=2**32 - 1)

MESSAGES = st.one_of(
    st.just(Choke()),
    st.just(Unchoke()),
    st.just(Interested()),
    st.just(NotInterested()),
    st.just(KeepAlive()),
    U32.map(lambda piece: Have(piece=piece)),
    st.binary(max_size=64).map(lambda bits: Bitfield(bits=bits)),
    st.tuples(U32, U32, U32).map(lambda t: Request(*t)),
    st.tuples(U32, U32, U32).map(lambda t: Cancel(*t)),
    st.tuples(U32, U32, st.binary(max_size=128)).map(
        lambda t: Piece(piece=t[0], offset=t[1], data=t[2])
    ),
)


def _chunks(wire: bytes, cuts):
    """Split *wire* at the (sorted, deduplicated) cut offsets."""
    points = sorted({min(cut, len(wire)) for cut in cuts})
    pieces, start = [], 0
    for point in points:
        pieces.append(wire[start:point])
        start = point
    pieces.append(wire[start:])
    return pieces


class TestRechunkingIdentity:
    @settings(max_examples=200, deadline=None)
    @given(
        messages=st.lists(MESSAGES, max_size=12),
        with_handshake=st.booleans(),
        data=st.data(),
    )
    def test_any_rechunking_yields_identical_messages(
        self, messages, with_handshake, data
    ):
        wire = encode_session(messages, handshake=HANDSHAKE if with_handshake else None)
        cuts = data.draw(
            st.lists(st.integers(min_value=0, max_value=max(len(wire), 1)), max_size=20)
        )
        stream = MessageStream(expect_handshake=with_handshake)
        out = []
        for chunk in _chunks(wire, cuts):
            out.extend(stream.feed(chunk))
        expected = ([HANDSHAKE] if with_handshake else []) + messages
        assert out == expected
        assert buffered_bytes(stream) == 0
        assert stream.bytes_consumed == len(wire)

    @settings(max_examples=50, deadline=None)
    @given(messages=st.lists(MESSAGES, min_size=1, max_size=8))
    def test_byte_at_a_time_equals_single_feed(self, messages):
        wire = encode_session(messages)
        whole = MessageStream(expect_handshake=False).feed(wire)
        trickle = MessageStream(expect_handshake=False)
        out = []
        for index in range(len(wire)):
            out.extend(trickle.feed(wire[index : index + 1]))
        assert out == whole == messages


class TestMalformedFrames:
    @settings(max_examples=100, deadline=None)
    @given(
        bad_id=st.integers(min_value=9, max_value=255),
        tail=st.lists(MESSAGES, min_size=1, max_size=5),
    )
    def test_unknown_id_raises_and_preserves_later_frames(self, bad_id, tail):
        bad = (1).to_bytes(4, "big") + bytes([bad_id])
        stream = MessageStream(expect_handshake=False)
        with pytest.raises(MessageError):
            stream.feed(bad + encode_session(tail))
        # The poisoned frame is consumed; everything behind it is intact.
        assert stream.feed(b"") == tail
        assert buffered_bytes(stream) == 0

    @settings(max_examples=100, deadline=None)
    @given(
        declared=st.integers(min_value=6, max_value=64),
        tail=st.lists(MESSAGES, min_size=1, max_size=5),
    )
    def test_mutated_length_prefix_raises_and_preserves_later_frames(
        self, declared, tail
    ):
        # A HAVE frame whose length prefix was corrupted: the declared
        # payload length disagrees with what HAVE decodes (a valid HAVE
        # frame declares exactly 5, so anything larger is a mutation).
        body = b"\x04" + b"\x00" * (declared - 1)
        bad = declared.to_bytes(4, "big") + body
        stream = MessageStream(expect_handshake=False)
        with pytest.raises(MessageError):
            stream.feed(bad + encode_session(tail))
        assert stream.feed(b"") == tail

    @settings(max_examples=50, deadline=None)
    @given(excess=st.integers(min_value=1, max_value=2**31))
    def test_oversized_frame_rejected_at_limit(self, excess):
        stream = MessageStream(expect_handshake=False)
        with pytest.raises(MessageError):
            stream.feed((MAX_FRAME_LENGTH + excess).to_bytes(4, "big"))

    def test_frame_at_exactly_max_length_accepted(self):
        stream = MessageStream(expect_handshake=False)
        payload = b"\x00" * 8 + b"x" * (MAX_FRAME_LENGTH - 9)
        frame = MAX_FRAME_LENGTH.to_bytes(4, "big") + bytes([Piece.MESSAGE_ID]) + payload
        (message,) = stream.feed(frame)
        assert isinstance(message, Piece)
        assert len(message.data) == MAX_FRAME_LENGTH - 9

    def test_error_is_sticky_per_frame_not_per_stream(self):
        # After an unknown-id error the stream object remains usable for
        # the bytes it already buffered (reap-and-resync semantics).
        stream = MessageStream(expect_handshake=False)
        bad = (1).to_bytes(4, "big") + bytes([200])
        good = Have(piece=3).encode() + Choke().encode()
        with pytest.raises(MessageError):
            stream.feed(bad + good)
        assert stream.feed(Unchoke().encode()) == [
            Have(piece=3),
            Choke(),
            Unchoke(),
        ]
