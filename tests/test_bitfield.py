"""Unit and property tests for the piece-ownership bitfield."""

import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.protocol.bitfield import Bitfield

from tests.probes import is_empty, missing_indices, pieces_only_in


class TestBasics:
    def test_starts_empty(self):
        field = Bitfield(10)
        assert field.count == 0
        assert field.missing == 10
        assert is_empty(field)
        assert not field.is_complete()

    def test_set_and_has(self):
        field = Bitfield(10)
        assert field.set(3)
        assert field.has(3)
        assert not field.has(4)
        assert field.count == 1

    def test_set_idempotent(self):
        field = Bitfield(10)
        assert field.set(3)
        assert not field.set(3)
        assert field.count == 1

    def test_clear(self):
        field = Bitfield(10, have=[3])
        assert field.clear(3)
        assert not field.clear(3)
        assert field.count == 0

    def test_constructor_with_have(self):
        field = Bitfield(10, have=[0, 9])
        assert field.has(0) and field.has(9)
        assert field.count == 2

    def test_out_of_range_rejected(self):
        field = Bitfield(10)
        with pytest.raises(IndexError):
            field.has(10)
        with pytest.raises(IndexError):
            field.set(-1)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            Bitfield(-1)

    def test_zero_pieces(self):
        field = Bitfield(0)
        assert field.is_complete()  # vacuously: no pieces missing
        assert field.count == 0

    def test_full(self):
        field = Bitfield.full(13)
        assert field.is_complete()
        assert field.count == 13
        assert list(missing_indices(field)) == []

    def test_copy_is_independent(self):
        field = Bitfield(8, have=[1])
        clone = field.copy()
        clone.set(2)
        assert not field.has(2)
        assert clone.count == 2

    def test_len_and_contains(self):
        field = Bitfield(8, have=[2])
        assert len(field) == 8
        assert 2 in field
        assert 3 not in field
        assert 100 not in field


class TestIteration:
    def test_have_indices(self):
        field = Bitfield(10, have=[9, 0, 4])
        assert list(field.have_indices()) == [0, 4, 9]

    def test_missing_indices(self):
        field = Bitfield(4, have=[1, 2])
        assert list(missing_indices(field)) == [0, 3]


class TestInterest:
    def test_interesting_when_other_has_missing_piece(self):
        ours = Bitfield(5, have=[0])
        theirs = Bitfield(5, have=[0, 1])
        assert ours.interesting_in(theirs)

    def test_not_interesting_when_subset(self):
        ours = Bitfield(5, have=[0, 1])
        theirs = Bitfield(5, have=[0])
        assert not ours.interesting_in(theirs)

    def test_not_interesting_in_equal(self):
        ours = Bitfield(5, have=[2])
        theirs = Bitfield(5, have=[2])
        assert not ours.interesting_in(theirs)

    def test_seed_not_interesting_in_anyone(self):
        ours = Bitfield.full(5)
        theirs = Bitfield(5, have=[0, 1, 2, 3])
        assert not ours.interesting_in(theirs)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Bitfield(5).interesting_in(Bitfield(6))

    def test_pieces_only_in(self):
        ours = Bitfield(6, have=[0, 2])
        theirs = Bitfield(6, have=[0, 1, 5])
        assert list(pieces_only_in(ours, theirs)) == [1, 5]


class TestWireFormat:
    def test_roundtrip(self):
        field = Bitfield(12, have=[0, 5, 11])
        recovered = Bitfield.from_bytes(field.to_bytes(), 12)
        assert recovered == field
        assert recovered.count == 3

    def test_msb_first_bit_order(self):
        field = Bitfield(8, have=[0])
        assert field.to_bytes() == b"\x80"

    def test_spare_bits_must_be_zero(self):
        with pytest.raises(ValueError):
            Bitfield.from_bytes(b"\xff", 4)  # low nibble is spare

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            Bitfield.from_bytes(b"\x00\x00", 4)

    def test_full_last_byte_masked(self):
        field = Bitfield.full(9)
        data = field.to_bytes()
        assert data == b"\xff\x80"


@given(st.integers(1, 200), st.data())
def test_property_count_matches_indices(num_pieces, data):
    have = data.draw(
        st.lists(st.integers(0, num_pieces - 1), unique=True, max_size=num_pieces)
    )
    field = Bitfield(num_pieces, have=have)
    assert field.count == len(have)
    assert sorted(have) == list(field.have_indices())
    assert field.count + field.missing == num_pieces


@given(st.integers(1, 200), st.data())
def test_property_wire_roundtrip(num_pieces, data):
    have = data.draw(
        st.lists(st.integers(0, num_pieces - 1), unique=True, max_size=num_pieces)
    )
    field = Bitfield(num_pieces, have=have)
    assert Bitfield.from_bytes(field.to_bytes(), num_pieces) == field


@given(st.integers(1, 100), st.data())
def test_property_interest_antisymmetry_on_disjoint(num_pieces, data):
    """With disjoint non-empty holdings, interest is mutual."""
    indices = list(range(num_pieces))
    split = data.draw(st.integers(1, max(1, num_pieces - 1)))
    a = Bitfield(num_pieces, have=indices[:split])
    b = Bitfield(num_pieces, have=indices[split:])
    if a.count and b.count:
        assert a.interesting_in(b)
        assert b.interesting_in(a)


@given(st.integers(1, 100), st.data())
def test_property_interest_definition(num_pieces, data):
    """interesting_in matches the set-theoretic definition."""
    ours = set(
        data.draw(st.lists(st.integers(0, num_pieces - 1), unique=True))
    )
    theirs = set(
        data.draw(st.lists(st.integers(0, num_pieces - 1), unique=True))
    )
    a = Bitfield(num_pieces, have=ours)
    b = Bitfield(num_pieces, have=theirs)
    assert a.interesting_in(b) == bool(theirs - ours)
    assert set(pieces_only_in(a, b)) == theirs - ours


class TestIndexIterators:
    """``have_indices`` / ``missing_indices`` / ``pieces_only_in`` walk
    bytes, not bits; the per-index probe they replaced is the oracle."""

    @staticmethod
    def probed(field):
        return [
            index
            for index in range(field.num_pieces)
            if field._bits[index >> 3] & (0x80 >> (index & 7))
        ]

    def test_spare_bits_are_never_reported_missing(self):
        # 11 pieces: the last byte has 5 spare (zero) padding bits.
        assert list(missing_indices(Bitfield.full(11))) == []
        assert list(missing_indices(Bitfield(11))) == list(range(11))
        assert list(missing_indices(Bitfield(11, have=[10]))) == list(range(10))

    def test_ends_and_zero_bytes(self):
        field = Bitfield(35, have=[0, 34])  # three all-zero bytes between
        assert list(field.have_indices()) == [0, 34]
        assert list(pieces_only_in(Bitfield(35), field)) == [0, 34]
        assert list(pieces_only_in(field, Bitfield.full(35))) == list(range(1, 34))

    def test_empty_torrent(self):
        field = Bitfield(0)
        assert list(field.have_indices()) == []
        assert list(missing_indices(field)) == []
        assert list(pieces_only_in(field, Bitfield(0))) == []

    def agree(self, field):
        """Bitmap, count and the two memoised forms say the same."""
        have = self.probed(field)
        assert list(field.have_indices()) == have
        assert field.count == len(have)
        assert field.as_int() == int.from_bytes(field.to_bytes(), "big")
        vector = field.as_vector()
        assert vector.dtype == np.uint8
        assert vector.tolist() == [
            int(index in have) for index in range(field.num_pieces)
        ]

    @staticmethod
    def makers():
        return [
            lambda: Bitfield(20, have=[3, 17]),
            lambda: Bitfield.full(20),
            lambda: Bitfield.from_bytes(
                Bitfield(20, have=[0, 3, 8, 19]).to_bytes(), 20
            ),
            lambda: Bitfield(20, have=[3, 17]).copy(),
        ]

    def test_bitmap_mirror_and_count_agree_through_every_mutator(self):
        """Only ``Bitfield`` writes its representations, so they never
        drift — shared remote views rely on it.  The memoised integer and
        vector are two more of them: built before the writes (*warm*) they
        must follow each one, built after they must start right."""
        for make, warm in itertools.product(self.makers(), (False, True)):
            field = make()
            if warm:
                self.agree(field)
            for write in (
                lambda: field.set(5),
                lambda: field.clear(3),
                lambda: field.clear(3),  # a clear after a read, unchanged bit
                lambda: field.set(3),
            ):
                write()
                if warm:
                    self.agree(field)
            self.agree(field)

    def test_a_copy_shares_no_memo_with_its_source(self):
        source = Bitfield(20, have=[3, 17])
        self.agree(source)  # both memos built
        clone = source.copy()
        clone.set(4)
        source.clear(17)
        self.agree(clone)
        self.agree(source)
        assert list(clone.have_indices()) == [3, 4, 17]
        assert list(source.have_indices()) == [3]

    def test_a_neighbour_reading_a_shared_view_between_two_writes(self):
        """Under DESIGN §12 a neighbour's view *is* the owner's bitfield:
        what it reads through the memos is never a write behind."""
        owner = Bitfield(20, have=[1])
        view = owner  # connection.remote_bitfield is remote.bitfield
        neighbour = Bitfield(20, have=[1, 2])
        assert not neighbour.interesting_in(view)
        owner.set(9)
        assert neighbour.interesting_in(view)
        assert view.as_int() == int.from_bytes(owner.to_bytes(), "big")
        assert view.as_vector()[9] == 1
        owner.clear(9)  # a hash failure takes it back
        assert not neighbour.interesting_in(view)
        owner.set(2)
        neighbour.clear(2)
        assert neighbour.interesting_in(view)
        self.agree(owner)
        self.agree(neighbour)

    @given(
        st.integers(1, 70),
        st.integers(0, 3),
        st.lists(st.tuples(st.sampled_from("scrv"), st.integers(0, 69)), max_size=30),
    )
    def test_property_memos_follow_any_interleaving(self, num_pieces, maker, ops):
        """set / clear / read-int / read-vector in any order, on every
        constructor: each read equals a fresh derivation from the bytes."""
        held = [index for index in (0, 3, 8, 19, 64) if index < num_pieces]
        field = [
            lambda: Bitfield(num_pieces, have=held),
            lambda: Bitfield.full(num_pieces),
            lambda: Bitfield.from_bytes(
                Bitfield(num_pieces, have=held).to_bytes(), num_pieces
            ),
            lambda: Bitfield(num_pieces, have=held).copy(),
        ][maker]()
        for op, index in ops:
            index %= num_pieces
            if op == "s":
                field.set(index)
            elif op == "c":
                field.clear(index)
            elif op == "r":
                assert field.as_int() == int.from_bytes(field.to_bytes(), "big")
            else:
                assert field.as_vector().tolist() == [
                    int(field.has(i)) for i in range(num_pieces)
                ]
        self.agree(field)

    def test_pieces_only_in_rejects_another_torrent(self):
        with pytest.raises(ValueError):
            list(pieces_only_in(Bitfield(5), Bitfield(6)))

    @given(st.integers(0, 70), st.data())
    def test_property_iterators_match_the_per_index_probe(self, num_pieces, data):
        subsets = st.sets(st.integers(0, max(0, num_pieces - 1)), max_size=num_pieces)
        ours = data.draw(subsets) if num_pieces else set()
        theirs = data.draw(subsets) if num_pieces else set()
        a = Bitfield(num_pieces, have=ours)
        b = Bitfield(num_pieces, have=theirs)
        have = self.probed(a)
        assert list(a.have_indices()) == have == sorted(ours)
        assert list(missing_indices(a)) == [
            index for index in range(num_pieces) if index not in ours
        ]
        assert list(pieces_only_in(a, b)) == [
            index for index in self.probed(b) if index not in ours
        ]
