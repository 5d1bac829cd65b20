"""Unit and property tests for torrent metainfo and piece geometry."""

import hashlib

import pytest
from hypothesis import given, strategies as st

from random import Random

from repro.core.piece_picker import PiecePicker
from repro.core.rarest_first import RarestFirstSelector
from repro.protocol import metainfo as metainfo_module
from repro.protocol.bitfield import Bitfield
from repro.protocol.metainfo import (
    BlockRef,
    Metainfo,
    PieceGeometry,
    make_metainfo,
)

from tests.probes import blocks_in_piece, total_blocks


def fresh_blocks(geometry, piece):
    """The block list as ``blocks`` built it on every call before it was
    interned: the oracle for the interned tuples."""
    length = geometry.piece_length(piece)
    refs = []
    offset = 0
    while offset < length:
        block_length = min(geometry.block_size, length - offset)
        refs.append(BlockRef(piece, offset, block_length))
        offset += block_length
    return refs


class TestPieceGeometry:
    def test_even_split(self):
        geometry = PieceGeometry(1024, piece_size=256, block_size=64)
        assert geometry.num_pieces == 4
        assert geometry.piece_length(0) == 256
        assert geometry.piece_length(3) == 256
        assert blocks_in_piece(geometry, 0) == 4

    def test_short_last_piece(self):
        geometry = PieceGeometry(1000, piece_size=256, block_size=64)
        assert geometry.num_pieces == 4
        assert geometry.piece_length(3) == 1000 - 3 * 256

    def test_short_last_block(self):
        geometry = PieceGeometry(100, piece_size=100, block_size=64)
        blocks = geometry.blocks(0)
        assert [b.length for b in blocks] == [64, 36]
        assert blocks[1].offset == 64

    def test_blocks_cover_piece_exactly(self):
        geometry = PieceGeometry(1000, piece_size=256, block_size=60)
        for piece in range(geometry.num_pieces):
            blocks = geometry.blocks(piece)
            assert sum(b.length for b in blocks) == geometry.piece_length(piece)
            assert blocks[0].offset == 0

    def test_block_ref(self):
        geometry = PieceGeometry(1024, piece_size=256, block_size=64)
        ref = geometry.block_ref(1, 2)
        assert ref == BlockRef(1, 128, 64)

    def test_block_ref_out_of_range(self):
        geometry = PieceGeometry(1024, piece_size=256, block_size=64)
        with pytest.raises(IndexError):
            geometry.block_ref(0, 4)

    def test_block_ref_never_wraps(self):
        """Interned blocks live in tuples, and tuple indexing would hand
        back the last block for ``-1``: ``NetPeer._check_frame`` relies on
        the raise to stop a hostile offset."""
        geometry = PieceGeometry(1000, piece_size=256, block_size=64)
        for piece in range(geometry.num_pieces):
            count = blocks_in_piece(geometry, piece)
            for block_index in (-1, -count, count, count + 7):
                with pytest.raises(IndexError):
                    geometry.block_ref(piece, block_index)
            for block_index in range(count):
                assert geometry.block_ref(piece, block_index) is (
                    geometry.blocks(piece)[block_index]
                )
        for piece in (-1, geometry.num_pieces):
            with pytest.raises(IndexError):
                geometry.block_ref(piece, 0)
            with pytest.raises(IndexError):
                geometry.blocks(piece)

    def test_interned_blocks_equal_a_fresh_construction(self):
        geometry = PieceGeometry(1000, piece_size=256, block_size=60)
        assert geometry.piece_length(3) < 256  # a short last piece
        for piece in range(geometry.num_pieces):
            blocks = geometry.blocks(piece)
            assert list(blocks) == fresh_blocks(geometry, piece)
            assert len(blocks) == blocks_in_piece(geometry, piece)
            assert geometry.blocks(piece) is blocks  # one tuple per piece
            with pytest.raises(TypeError):
                blocks[0] = blocks[-1]  # immutable: pickers share it

    def test_two_pickers_on_one_geometry_hold_the_same_blocks(self):
        geometry = PieceGeometry(1000, piece_size=256, block_size=64)
        offer = Bitfield.full(geometry.num_pieces)
        held = []
        for seed in (1, 2):
            picker = PiecePicker(
                geometry,
                Bitfield(geometry.num_pieces),
                RarestFirstSelector(),
                Random(seed),
            )
            picker.peer_joined(offer)
            blocks = {}
            while True:
                block = picker.next_request(offer, "remote")
                if block is None or picker.in_endgame:
                    break
                blocks[block.piece, block.offset] = block
            held.append(blocks)
        assert held[0].keys() == held[1].keys() and len(held[0]) == 16
        assert all(held[0][key] is held[1][key] for key in held[0])

    def test_piece_out_of_range(self):
        geometry = PieceGeometry(1024, piece_size=256, block_size=64)
        with pytest.raises(IndexError):
            geometry.piece_length(4)

    def test_total_blocks(self):
        geometry = PieceGeometry(1000, piece_size=256, block_size=64)
        assert total_blocks(geometry) == sum(
            blocks_in_piece(geometry, p) for p in range(4)
        )

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            PieceGeometry(0)
        with pytest.raises(ValueError):
            PieceGeometry(100, piece_size=0)
        with pytest.raises(ValueError):
            PieceGeometry(100, piece_size=16, block_size=32)

    def test_block_ref_validation(self):
        with pytest.raises(ValueError):
            BlockRef(-1, 0, 1)
        with pytest.raises(ValueError):
            BlockRef(0, 0, 0)


class TestMetainfo:
    def test_synthetic_hashes_verify(self):
        meta = Metainfo.synthetic("t", 1000, piece_size=256, block_size=64)
        for piece in range(meta.geometry.num_pieces):
            assert meta.verify_piece(piece, meta.piece_payload(piece))

    def test_corrupt_piece_fails(self):
        meta = Metainfo.synthetic("t", 1000, piece_size=256, block_size=64)
        data = bytearray(meta.piece_payload(0))
        data[0] ^= 0xFF
        assert not meta.verify_piece(0, bytes(data))

    def test_wrong_length_fails(self):
        meta = Metainfo.synthetic("t", 1000, piece_size=256, block_size=64)
        assert not meta.verify_piece(0, b"short")

    def test_payload_is_deterministic(self):
        a = Metainfo.synthetic("t", 512, piece_size=256, block_size=64)
        b = Metainfo.synthetic("t", 512, piece_size=256, block_size=64)
        assert a.piece_payload(1) == b.piece_payload(1)
        assert a.info_hash == b.info_hash

    def test_synthetic_digests_are_hashed_once_per_torrent(self, monkeypatch):
        """``build_experiment`` calls ``synthetic`` per shard; the digests
        are a pure function of (name, total size, piece size)."""
        hashed = []
        real_sha1 = hashlib.sha1

        class CountingHashlib:
            @staticmethod
            def sha1(data=b""):
                hashed.append(len(data))
                return real_sha1(data)

        metainfo_module._synthetic_digests.cache_clear()
        plain = Metainfo.synthetic("memo", 1000, piece_size=256, block_size=64)
        monkeypatch.setattr(metainfo_module, "hashlib", CountingHashlib)
        metainfo_module._synthetic_digests.cache_clear()
        first = Metainfo.synthetic("memo", 1000, piece_size=256, block_size=64)
        cold = len(hashed)
        # Per piece: one seed, one digest; then the info hash.
        assert cold == 2 * first.geometry.num_pieces + 1
        second = Metainfo.synthetic("memo", 1000, piece_size=256, block_size=32)
        assert len(hashed) == cold + 1  # the info hash alone
        assert first.piece_hashes == second.piece_hashes == plain.piece_hashes
        assert first.info_hash == second.info_hash == plain.info_hash
        assert first.piece_hashes is not second.piece_hashes  # each owns its list
        assert second.geometry.block_size == 32
        # Verification still hashes what it is handed.
        assert second.verify_piece(0, second.piece_payload(0))
        assert len(hashed) > cold + 1
        # Another name, size or piece size is another torrent.
        other = Metainfo.synthetic("memo", 1000, piece_size=128, block_size=64)
        assert other.piece_hashes != first.piece_hashes
        assert metainfo_module._synthetic_digests.cache_info().maxsize is not None

    def test_different_names_different_content(self):
        a = Metainfo.synthetic("a", 512, piece_size=256, block_size=64)
        b = Metainfo.synthetic("b", 512, piece_size=256, block_size=64)
        assert a.piece_payload(0) != b.piece_payload(0)
        assert a.info_hash != b.info_hash

    def test_info_hash_is_sha1_of_info_dict(self):
        meta = Metainfo.synthetic("x", 300, piece_size=256, block_size=64)
        assert len(meta.info_hash) == 20
        from repro.protocol.bencode import bencode

        assert meta.info_hash == hashlib.sha1(bencode(meta._info_dict())).digest()

    def test_hash_count_must_match(self):
        geometry = PieceGeometry(512, piece_size=256, block_size=64)
        with pytest.raises(ValueError):
            Metainfo("t", geometry, [b"\x00" * 20])

    def test_hash_length_validated(self):
        geometry = PieceGeometry(256, piece_size=256, block_size=64)
        with pytest.raises(ValueError):
            Metainfo("t", geometry, [b"\x00" * 19])

    def test_make_metainfo(self):
        meta = make_metainfo("t", num_pieces=7, piece_size=128, block_size=32)
        assert meta.geometry.num_pieces == 7
        assert meta.geometry.total_size == 7 * 128

    def test_make_metainfo_short_last_piece(self):
        meta = make_metainfo(
            "t", num_pieces=3, piece_size=128, block_size=32, last_piece_size=40
        )
        assert meta.geometry.num_pieces == 3
        assert meta.geometry.piece_length(2) == 40

    def test_make_metainfo_validation(self):
        with pytest.raises(ValueError):
            make_metainfo("t", num_pieces=0)
        with pytest.raises(ValueError):
            make_metainfo("t", num_pieces=2, piece_size=64, last_piece_size=65)


@given(
    total=st.integers(1, 10_000),
    piece=st.integers(1, 2_048),
    block=st.integers(1, 2_048),
)
def test_property_geometry_partition(total, piece, block):
    """Pieces partition the content; blocks partition each piece."""
    if block > piece:
        piece, block = block, piece
    geometry = PieceGeometry(total, piece_size=piece, block_size=block)
    assert (
        sum(geometry.piece_length(p) for p in range(geometry.num_pieces)) == total
    )
    for p in range(geometry.num_pieces):
        blocks = geometry.blocks(p)
        assert sum(b.length for b in blocks) == geometry.piece_length(p)
        offsets = [b.offset for b in blocks]
        assert offsets == sorted(offsets)
        # Contiguity: each block starts where the previous one ends.
        for first, second in zip(blocks, blocks[1:]):
            assert second.offset == first.offset + first.length
