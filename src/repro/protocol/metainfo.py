"""Torrent metainfo and piece/block geometry.

A torrent's content is split in *pieces* (typically 256 kB; the protocol
only accounts for complete pieces) and each piece is split in *blocks*
(16 kB, the transmission unit), as in the paper's section II-A.  This
module owns that arithmetic, the SHA-1 piece digests and the info
hash (SHA-1 of the bencoded info dictionary, via
:mod:`repro.protocol.bencode`).
"""

from __future__ import annotations

import functools
import hashlib
from collections import namedtuple
from typing import Dict, List, Optional, Tuple

from repro.protocol.bencode import bencode

DEFAULT_PIECE_SIZE = 256 * 1024
DEFAULT_BLOCK_SIZE = 16 * 1024  # 2**14, the mainline default block size


class BlockRef(namedtuple("BlockRef", ("piece", "offset", "length"))):
    """A block within a piece: (piece index, byte offset, length).

    A tuple, so hashing and equality run in C on the request path
    (upload-queue scans, ``request_times``).  Its hash is
    ``hash((piece, offset, length))``, the hash the frozen dataclass
    this replaced computed, so every set and dict of blocks iterates in
    the same order under any ``PYTHONHASHSEED``.
    """

    __slots__ = ()

    def __new__(cls, piece: int, offset: int, length: int) -> "BlockRef":
        if piece < 0 or offset < 0 or length <= 0:
            raise ValueError(
                "invalid block reference BlockRef(piece=%r, offset=%r, length=%r)"
                % (piece, offset, length)
            )
        return tuple.__new__(cls, (piece, offset, length))


class PieceGeometry:
    """Pure piece/block arithmetic for a content of ``total_size`` bytes."""

    def __init__(
        self,
        total_size: int,
        piece_size: int = DEFAULT_PIECE_SIZE,
        block_size: int = DEFAULT_BLOCK_SIZE,
    ):
        if total_size <= 0:
            raise ValueError("total_size must be positive")
        if piece_size <= 0 or block_size <= 0:
            raise ValueError("piece_size and block_size must be positive")
        if block_size > piece_size:
            raise ValueError("block_size cannot exceed piece_size")
        self.total_size = total_size
        self.piece_size = piece_size
        self.block_size = block_size
        self.num_pieces = -(-total_size // piece_size)
        # Interned block lists: one immutable tuple per piece, built on
        # first use and shared by every picker on this geometry.
        self._blocks: Dict[int, Tuple[BlockRef, ...]] = {}

    def piece_length(self, piece: int) -> int:
        """Length in bytes of *piece* (the last piece may be shorter)."""
        self._check_piece(piece)
        if piece == self.num_pieces - 1:
            remainder = self.total_size - piece * self.piece_size
            return remainder
        return self.piece_size

    def blocks(self, piece: int) -> Tuple[BlockRef, ...]:
        """All blocks of *piece*, in offset order (interned: every call
        returns the same immutable tuple of the same objects)."""
        refs = self._blocks.get(piece)
        if refs is None:
            length = self.piece_length(piece)
            refs = self._blocks[piece] = tuple(
                BlockRef(piece, offset, min(self.block_size, length - offset))
                for offset in range(0, length, self.block_size)
            )
        return refs

    def block_ref(self, piece: int, block_index: int) -> BlockRef:
        """The ``block_index``-th block of *piece*."""
        refs = self.blocks(piece)
        # Checked by hand: tuple indexing would wrap a negative index,
        # and a hostile wire offset must raise.
        if not 0 <= block_index < len(refs):
            raise IndexError(
                "block %d out of range for piece %d" % (block_index, piece)
            )
        return refs[block_index]

    def _check_piece(self, piece: int) -> None:
        if not 0 <= piece < self.num_pieces:
            raise IndexError("piece %d out of range [0, %d)" % (piece, self.num_pieces))

    def __repr__(self) -> str:
        return "PieceGeometry(size=%d, pieces=%d x %d B, blocks of %d B)" % (
            self.total_size,
            self.num_pieces,
            self.piece_size,
            self.block_size,
        )


class Metainfo:
    """Torrent metadata: name, geometry, piece digests, info hash.

    Content is synthetic in this reproduction (there is no real payload on
    disk), but the SHA-1 machinery is real: :meth:`synthetic` derives each
    piece's bytes deterministically from (info-hash seed, piece index), so
    hash verification on piece completion exercises the same code path a
    real client does.
    """

    def __init__(
        self,
        name: str,
        geometry: PieceGeometry,
        piece_hashes: List[bytes],
    ):
        if len(piece_hashes) != geometry.num_pieces:
            raise ValueError(
                "expected %d piece hashes, got %d"
                % (geometry.num_pieces, len(piece_hashes))
            )
        for digest in piece_hashes:
            if len(digest) != 20:
                raise ValueError("piece hashes must be 20-byte SHA-1 digests")
        self.name = name
        self.geometry = geometry
        self.piece_hashes = list(piece_hashes)
        self.info_hash = self._compute_info_hash()

    # -- synthetic content --------------------------------------------------

    @classmethod
    def synthetic(
        cls,
        name: str,
        total_size: int,
        piece_size: int = DEFAULT_PIECE_SIZE,
        block_size: int = DEFAULT_BLOCK_SIZE,
    ) -> "Metainfo":
        """Build a metainfo over deterministic synthetic content."""
        geometry = PieceGeometry(total_size, piece_size, block_size)
        hashes = _synthetic_digests(name, total_size, piece_size)
        return cls(name, geometry, hashes)

    @staticmethod
    def _piece_payload(name: str, piece: int, geometry: PieceGeometry) -> bytes:
        """Deterministic bytes for *piece*; cheap and collision-free enough."""
        seed = hashlib.sha1(("%s/%d" % (name, piece)).encode()).digest()
        length = geometry.piece_length(piece)
        repeats = -(-length // len(seed))
        return (seed * repeats)[:length]

    def piece_payload(self, piece: int) -> bytes:
        """The synthetic content of *piece* (what a seed would serve)."""
        return self._piece_payload(self.name, piece, self.geometry)

    def verify_piece(self, piece: int, data: bytes) -> bool:
        """SHA-1 check of a completed piece, as a real client performs."""
        self.geometry._check_piece(piece)
        if len(data) != self.geometry.piece_length(piece):
            return False
        return hashlib.sha1(data).digest() == self.piece_hashes[piece]

    # -- info hash ------------------------------------------------------------

    def _info_dict(self) -> dict:
        return {
            b"name": self.name.encode("utf-8"),
            b"piece length": self.geometry.piece_size,
            b"length": self.geometry.total_size,
            b"pieces": b"".join(self.piece_hashes),
        }

    def _compute_info_hash(self) -> bytes:
        return hashlib.sha1(bencode(self._info_dict())).digest()

    def __repr__(self) -> str:
        return "Metainfo(%r, %s)" % (self.name, self.geometry)


@functools.lru_cache(maxsize=32)
def _synthetic_digests(
    name: str, total_size: int, piece_size: int
) -> Tuple[bytes, ...]:
    """SHA-1 of every synthetic piece: a pure function of its arguments
    (block size plays no part), so campaign shards and replicates of one
    torrent hash its content once per process."""
    geometry = PieceGeometry(total_size, piece_size, piece_size)
    return tuple(
        hashlib.sha1(Metainfo._piece_payload(name, piece, geometry)).digest()
        for piece in range(geometry.num_pieces)
    )


def make_metainfo(
    name: str,
    num_pieces: int,
    piece_size: int = DEFAULT_PIECE_SIZE,
    block_size: int = DEFAULT_BLOCK_SIZE,
    last_piece_size: Optional[int] = None,
) -> Metainfo:
    """Convenience builder specifying the piece count directly.

    ``last_piece_size`` lets tests exercise a short final piece.
    """
    if num_pieces <= 0:
        raise ValueError("num_pieces must be positive")
    if last_piece_size is None:
        last_piece_size = piece_size
    if not 0 < last_piece_size <= piece_size:
        raise ValueError("last_piece_size must be in (0, piece_size]")
    total = (num_pieces - 1) * piece_size + last_piece_size
    return Metainfo.synthetic(name, total, piece_size, block_size)
