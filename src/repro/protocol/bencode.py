"""Bencoding codec (BEP 3).

Bencoding is the serialisation format used by .torrent metainfo files and
by tracker HTTP responses.  Four types exist:

* integers     ``i<decimal>e`` (no leading zeros, ``i-0e`` forbidden)
* byte strings ``<length>:<bytes>``
* lists        ``l<items>e``
* dictionaries ``d<key><value>...e`` with byte-string keys sorted in raw
  byte order (required for the canonical form that SHA-1 info hashes are
  computed over).

The encoder accepts ``int``, ``bytes``, ``str`` (encoded as UTF-8),
``list``/``tuple`` and ``dict``.  The decoder produces ``int``, ``bytes``,
``list`` and ``dict`` (keys are ``bytes``).
"""

from __future__ import annotations

from typing import Any, Tuple, Union

Bencodable = Union[int, bytes, str, list, tuple, dict]


class BencodeError(ValueError):
    """Raised when a value cannot be bencoded or a buffer cannot be decoded."""


def bencode(value: Bencodable) -> bytes:
    """Serialise *value* to its canonical bencoded form.

    >>> bencode({"announce": "http://t/ann", "n": 2})
    b'd8:announce12:http://t/ann1:ni2ee'
    """
    chunks: list = []
    _encode(value, chunks)
    return b"".join(chunks)


def _encode(value: Bencodable, out: list) -> None:
    if isinstance(value, bool):
        # bool is a subclass of int; reject it to avoid silent surprises.
        raise BencodeError("booleans are not bencodable")
    if isinstance(value, int):
        out.append(b"i%de" % value)
    elif isinstance(value, bytes):
        out.append(b"%d:" % len(value))
        out.append(value)
    elif isinstance(value, str):
        _encode(value.encode("utf-8"), out)
    elif isinstance(value, (list, tuple)):
        out.append(b"l")
        for item in value:
            _encode(item, out)
        out.append(b"e")
    elif isinstance(value, dict):
        out.append(b"d")
        encoded_keys = []
        for key in value:
            if isinstance(key, str):
                encoded_keys.append((key.encode("utf-8"), key))
            elif isinstance(key, bytes):
                encoded_keys.append((key, key))
            else:
                raise BencodeError(
                    "dictionary keys must be bytes or str, got %r" % type(key)
                )
        encoded_keys.sort(key=lambda pair: pair[0])
        for raw_key, original_key in encoded_keys:
            _encode(raw_key, out)
            _encode(value[original_key], out)
        out.append(b"e")
    else:
        raise BencodeError("cannot bencode values of type %r" % type(value))


def bdecode(data: bytes) -> Any:
    """Decode a complete bencoded buffer.

    Raises :class:`BencodeError` on malformed input, trailing garbage or
    nesting deeper than the recursion limit.
    """
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise BencodeError("bdecode expects bytes")
    data = bytes(data)
    try:
        value, offset = _decode(data, 0)
    except RecursionError:
        raise BencodeError("nesting deeper than the decoder recurses") from None
    if offset != len(data):
        raise BencodeError("trailing data after bencoded value")
    return value


def _decode(data: bytes, offset: int) -> Tuple[Any, int]:
    if offset >= len(data):
        raise BencodeError("unexpected end of data")
    lead = data[offset : offset + 1]
    if lead == b"i":
        return _decode_int(data, offset)
    if lead == b"l":
        return _decode_list(data, offset)
    if lead == b"d":
        return _decode_dict(data, offset)
    if lead.isdigit():
        return _decode_bytes(data, offset)
    raise BencodeError("invalid type marker %r at offset %d" % (lead, offset))


def _decode_int(data: bytes, offset: int) -> Tuple[int, int]:
    end = data.find(b"e", offset)
    if end < 0:
        raise BencodeError("unterminated integer")
    body = data[offset + 1 : end]
    if not body or body == b"-":
        raise BencodeError("empty integer")
    if body != b"0" and (body.lstrip(b"-").startswith(b"0") or body == b"-0"):
        raise BencodeError("integer with leading zeros: %r" % body)
    try:
        return int(body), end + 1
    except ValueError as exc:
        raise BencodeError("invalid integer %r" % body) from exc


def _decode_bytes(data: bytes, offset: int) -> Tuple[bytes, int]:
    colon = data.find(b":", offset)
    if colon < 0:
        raise BencodeError("unterminated string length")
    length_bytes = data[offset:colon]
    if len(length_bytes) > 1 and length_bytes.startswith(b"0"):
        raise BencodeError("string length with leading zeros")
    try:
        length = int(length_bytes)
    except ValueError as exc:
        raise BencodeError("invalid string length %r" % length_bytes) from exc
    start = colon + 1
    end = start + length
    if end > len(data):
        raise BencodeError("string extends past end of data")
    return data[start:end], end


def _decode_list(data: bytes, offset: int) -> Tuple[list, int]:
    items = []
    offset += 1
    while True:
        if offset >= len(data):
            raise BencodeError("unterminated list")
        if data[offset : offset + 1] == b"e":
            return items, offset + 1
        item, offset = _decode(data, offset)
        items.append(item)


def _decode_dict(data: bytes, offset: int) -> Tuple[dict, int]:
    result: dict = {}
    offset += 1
    previous_key = None
    while True:
        if offset >= len(data):
            raise BencodeError("unterminated dictionary")
        if data[offset : offset + 1] == b"e":
            return result, offset + 1
        key, offset = _decode(data, offset)
        if not isinstance(key, bytes):
            raise BencodeError("dictionary key is not a byte string")
        if previous_key is not None and key <= previous_key:
            raise BencodeError("dictionary keys not in sorted order")
        previous_key = key
        value, offset = _decode(data, offset)
        result[key] = value
