"""Piece-ownership bitfield.

Each peer advertises which pieces it holds with a compact bitmap: one bit
per piece, most significant bit of the first byte = piece 0, spare bits at
the end of the last byte must be zero (BEP 3).  On top of wire
(de)serialisation, this class offers the set operations the rest of the
library relies on: counting, iteration over set/missing pieces, and the
"has pieces the other side misses" test that drives INTERESTED messages.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as _np

#: For each byte value, the offsets (0 = most significant bit) of its set
#: bits in ascending order: the iterators below look a whole byte up here
#: instead of probing it one bit at a time.
_BYTE_OFFSETS = tuple(
    tuple(offset for offset in range(8) if byte & (0x80 >> offset))
    for byte in range(256)
)


def _set_bit_indices(bits) -> Iterator[int]:
    """Ascending indices of the set bits of a wire-order bitmap, skipping
    zero bytes."""
    for byte_index, byte in enumerate(bits):
        if byte:
            base = byte_index << 3
            for offset in _BYTE_OFFSETS[byte]:
                yield base + offset


class Bitfield:
    """Mutable fixed-size bitmap over ``num_pieces`` pieces.

    Invariant: the wire-format bitmap and the count always agree — only
    this class's own methods write them, and the simulator may hand one
    instance out as several neighbours' view of its owner.  Two derived
    forms are memoised for the hot readers: :meth:`as_int` (dropped by
    ``set`` / ``clear``) and :meth:`as_vector` (updated in place by
    them).
    """

    __slots__ = ("_num_pieces", "_bits", "_count", "_int", "_vector")

    def __init__(self, num_pieces: int, have: Iterable[int] = ()):
        if num_pieces < 0:
            raise ValueError("num_pieces must be non-negative")
        self._num_pieces = num_pieces
        self._bits = bytearray((num_pieces + 7) // 8)
        self._count = 0
        self._int = self._vector = None  # built on first read
        for index in have:
            self.set(index)

    # -- construction ----------------------------------------------------

    @classmethod
    def full(cls, num_pieces: int) -> "Bitfield":
        """A bitfield with every piece set (a seed's bitfield)."""
        field = cls(num_pieces)
        for byte_index in range(len(field._bits)):
            field._bits[byte_index] = 0xFF
        spare = len(field._bits) * 8 - num_pieces
        if spare and field._bits:
            field._bits[-1] &= 0xFF << spare & 0xFF
        field._count = num_pieces
        return field

    @classmethod
    def from_bytes(cls, data: bytes, num_pieces: int) -> "Bitfield":
        """Parse a wire-format bitfield; validates length and spare bits."""
        expected = (num_pieces + 7) // 8
        if len(data) != expected:
            raise ValueError(
                "bitfield is %d bytes, expected %d for %d pieces"
                % (len(data), expected, num_pieces)
            )
        field = cls(num_pieces)
        field._bits = bytearray(data)
        spare = expected * 8 - num_pieces
        if spare and data and data[-1] & ((1 << spare) - 1):
            raise ValueError("spare bits in final bitfield byte are not zero")
        # The spare bits are zero, so every set bit is a held piece.
        field._count = bin(int.from_bytes(data, "big")).count("1")
        return field

    def to_bytes(self) -> bytes:
        """Wire-format serialisation."""
        return bytes(self._bits)

    def copy(self) -> "Bitfield":
        clone = Bitfield(self._num_pieces)
        clone._bits = bytearray(self._bits)
        clone._count = self._count
        return clone

    # -- single-piece operations ------------------------------------------

    def _check(self, index: int) -> None:
        if not 0 <= index < self._num_pieces:
            raise IndexError("piece index %d out of range [0, %d)" % (index, self._num_pieces))

    def has(self, index: int) -> bool:
        self._check(index)
        return bool(self._bits[index >> 3] & (0x80 >> (index & 7)))

    def set(self, index: int) -> bool:
        """Mark *index* as held.  Returns True if the bit changed."""
        self._check(index)
        mask = 0x80 >> (index & 7)
        if self._bits[index >> 3] & mask:
            return False
        self._bits[index >> 3] |= mask
        self._count += 1
        self._int = None
        if self._vector is not None:
            self._vector[index] = 1
        return True

    def clear(self, index: int) -> bool:
        """Mark *index* as missing.  Returns True if the bit changed."""
        self._check(index)
        mask = 0x80 >> (index & 7)
        if not self._bits[index >> 3] & mask:
            return False
        self._bits[index >> 3] &= ~mask & 0xFF
        self._count -= 1
        self._int = None
        if self._vector is not None:
            self._vector[index] = 0
        return True

    # -- aggregates --------------------------------------------------------

    @property
    def num_pieces(self) -> int:
        return self._num_pieces

    @property
    def count(self) -> int:
        """Number of pieces held."""
        return self._count

    @property
    def missing(self) -> int:
        """Number of pieces not held."""
        return self._num_pieces - self._count

    def is_complete(self) -> bool:
        return self._count == self._num_pieces

    def have_indices(self) -> Iterator[int]:
        """Iterate over indices of held pieces, in increasing order
        (a snapshot taken at call time)."""
        return iter(list(_set_bit_indices(self._bits)))

    def as_int(self) -> int:
        """The bits as one big-endian integer (piece 0 at the most
        significant end, spare padding bits zero): a cheap basis for
        whole-bitfield boolean algebra at C speed.  ``a.as_int() &
        ~b.as_int()`` is nonzero exactly when ``a`` holds a piece ``b``
        misses — the complement's infinite high ones and the padding
        positions never intersect a valid bitfield's finite bits.
        Memoised until the next ``set`` / ``clear``."""
        value = self._int
        if value is None:
            value = self._int = int.from_bytes(self._bits, "big")
        return value

    def as_vector(self):
        """The pieces as a 0/1 ``uint8`` vector, built on
        first use and kept current by ``set`` / ``clear``.  Live and
        read-only: combine it at once (``mask & bits``), never hold it.
        Combine it into a bool mask before ``nonzero`` (``mask &
        bits.view(bool)``): a bool mask AND a uint8 vector is uint8, and
        ``nonzero`` on uint8 costs several times what it does on bool
        (DESIGN §12, "new-piece pick")."""
        vector = self._vector
        if vector is None:
            vector = self._vector = _np.unpackbits(
                _np.frombuffer(self._bits, dtype=_np.uint8),
                count=self._num_pieces,
            )
        return vector

    def interesting_in(self, other: "Bitfield") -> bool:
        """True when *other* holds at least one piece this bitfield misses.

        This is the protocol's definition of interest: peer A is interested
        in peer B when B has pieces A does not have (paper §II-A).
        """
        if other._num_pieces != self._num_pieces:
            raise ValueError("bitfields cover different torrents")
        return bool(other.as_int() & ~self.as_int())

    # -- dunder ------------------------------------------------------------

    def __len__(self) -> int:
        return self._num_pieces

    def __contains__(self, index: int) -> bool:
        return 0 <= index < self._num_pieces and self.has(index)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bitfield):
            return NotImplemented
        return self._num_pieces == other._num_pieces and self._bits == other._bits

    def __hash__(self) -> int:  # pragma: no cover - mutable, but handy in sets of frozen copies
        return hash((self._num_pieces, bytes(self._bits)))

    def __repr__(self) -> str:
        return "Bitfield(%d/%d pieces)" % (self._count, self._num_pieces)
