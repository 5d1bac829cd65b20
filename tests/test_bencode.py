"""Unit and property tests for the bencoding codec."""

import pytest
from hypothesis import given, strategies as st

from repro.protocol.bencode import BencodeError, bdecode, bencode


class TestEncode:
    def test_integer(self):
        assert bencode(42) == b"i42e"

    def test_negative_integer(self):
        assert bencode(-7) == b"i-7e"

    def test_zero(self):
        assert bencode(0) == b"i0e"

    def test_bytes(self):
        assert bencode(b"spam") == b"4:spam"

    def test_empty_bytes(self):
        assert bencode(b"") == b"0:"

    def test_str_encoded_as_utf8(self):
        assert bencode("café") == b"5:caf\xc3\xa9"

    def test_list(self):
        assert bencode([1, b"a"]) == b"li1e1:ae"

    def test_tuple_as_list(self):
        assert bencode((1, 2)) == b"li1ei2ee"

    def test_nested_list(self):
        assert bencode([[1], []]) == b"lli1eelee"

    def test_dict_keys_sorted_by_raw_bytes(self):
        assert bencode({"b": 1, "a": 2}) == b"d1:ai2e1:bi1ee"

    def test_dict_bytes_keys(self):
        assert bencode({b"k": b"v"}) == b"d1:k1:ve"

    def test_bool_rejected(self):
        with pytest.raises(BencodeError):
            bencode(True)

    def test_float_rejected(self):
        with pytest.raises(BencodeError):
            bencode(1.5)

    def test_none_rejected(self):
        with pytest.raises(BencodeError):
            bencode(None)

    def test_non_string_dict_key_rejected(self):
        with pytest.raises(BencodeError):
            bencode({1: 2})


class TestDecode:
    def test_integer(self):
        assert bdecode(b"i42e") == 42

    def test_negative(self):
        assert bdecode(b"i-42e") == -42

    def test_bytes(self):
        assert bdecode(b"4:spam") == b"spam"

    def test_list(self):
        assert bdecode(b"li1ei2ee") == [1, 2]

    def test_dict(self):
        assert bdecode(b"d1:ai1e1:bi2ee") == {b"a": 1, b"b": 2}

    def test_empty_collections(self):
        assert bdecode(b"le") == []
        assert bdecode(b"de") == {}

    def test_trailing_garbage_rejected(self):
        with pytest.raises(BencodeError):
            bdecode(b"i1ejunk")

    def test_leading_zeros_rejected(self):
        with pytest.raises(BencodeError):
            bdecode(b"i01e")

    def test_negative_zero_rejected(self):
        with pytest.raises(BencodeError):
            bdecode(b"i-0e")

    def test_unterminated_integer(self):
        with pytest.raises(BencodeError):
            bdecode(b"i42")

    def test_unterminated_list(self):
        with pytest.raises(BencodeError):
            bdecode(b"li1e")

    def test_unterminated_dict(self):
        with pytest.raises(BencodeError):
            bdecode(b"d1:a")

    def test_string_too_short(self):
        with pytest.raises(BencodeError):
            bdecode(b"9:abc")

    def test_string_length_leading_zero(self):
        with pytest.raises(BencodeError):
            bdecode(b"04:spam")

    def test_unsorted_dict_keys_rejected(self):
        with pytest.raises(BencodeError):
            bdecode(b"d1:bi1e1:ai2ee")

    def test_duplicate_dict_keys_rejected(self):
        with pytest.raises(BencodeError):
            bdecode(b"d1:ai1e1:ai2ee")

    def test_non_bytes_dict_key_rejected(self):
        with pytest.raises(BencodeError):
            bdecode(b"di1ei2ee")

    def test_empty_input(self):
        with pytest.raises(BencodeError):
            bdecode(b"")

    def test_non_bytes_input(self):
        with pytest.raises(BencodeError):
            bdecode("i1e")  # type: ignore[arg-type]

    def test_unknown_marker(self):
        with pytest.raises(BencodeError):
            bdecode(b"x")

    @pytest.mark.parametrize("marker", [b"l", b"d"])
    def test_nesting_past_the_recursion_limit(self, marker):
        """Regression: a deep nest escaped as RecursionError."""
        with pytest.raises(BencodeError, match="nesting"):
            bdecode(marker * 100_000)


# Hypothesis: arbitrary nested bencodable values survive a round trip.
bencodable = st.recursive(
    st.integers() | st.binary(max_size=64),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.binary(max_size=8), children, max_size=4),
    max_leaves=20,
)


@given(bencodable)
def test_roundtrip(value):
    def normalise(v):
        if isinstance(v, tuple):
            return [normalise(i) for i in v]
        if isinstance(v, list):
            return [normalise(i) for i in v]
        if isinstance(v, dict):
            return {k: normalise(val) for k, val in v.items()}
        return v

    assert bdecode(bencode(value)) == normalise(value)


@given(bencodable)
def test_encoding_is_canonical(value):
    """Encoding is deterministic: encode(decode(encode(x))) == encode(x)."""
    first = bencode(value)
    assert bencode(bdecode(first)) == first


@given(st.binary(max_size=32))
def test_decoder_never_crashes_unexpectedly(data):
    """Arbitrary bytes either decode or raise BencodeError — nothing else."""
    try:
        bdecode(data)
    except BencodeError:
        pass


@given(
    st.lists(st.sampled_from([b"l", b"d", b"li0e", b"d1:a"]), max_size=4),
    st.integers(0, 20_000),
    st.binary(max_size=32),
)
def test_decoder_raises_only_bencode_error_at_any_depth(openers, depth, tail):
    """Arbitrary bytes behind an arbitrarily deep opening nest."""
    data = b"".join(openers) * depth + tail
    try:
        bdecode(data)
    except BencodeError:
        pass
