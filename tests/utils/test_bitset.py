"""Unit and property tests for the BitSet utility."""

import re
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils import bitset
from repro.utils.bitset import BitSet, popcount

small_sets = st.sets(st.integers(min_value=0, max_value=200), max_size=40)


class TestBasics:
    def test_empty(self):
        b = BitSet.empty()
        assert len(b) == 0
        assert not b
        assert list(b) == []

    def test_singleton(self):
        b = BitSet.singleton(5)
        assert 5 in b
        assert 4 not in b
        assert len(b) == 1

    def test_from_iterable_dedups(self):
        b = BitSet.from_iterable([1, 1, 2, 2, 2])
        assert len(b) == 2
        assert sorted(b) == [1, 2]

    def test_negative_member_rejected(self):
        with pytest.raises(ValueError):
            BitSet.from_iterable([-1])
        with pytest.raises(ValueError):
            BitSet.singleton(-3)
        with pytest.raises(ValueError):
            BitSet(-1)

    def test_add_remove_are_persistent(self):
        a = BitSet.from_iterable([1, 2])
        b = a.add(3)
        c = b.remove(1)
        assert sorted(a) == [1, 2]
        assert sorted(b) == [1, 2, 3]
        assert sorted(c) == [2, 3]

    def test_remove_absent_is_noop(self):
        a = BitSet.from_iterable([1])
        assert a.remove(7) == a

    def test_repr_roundtrip_members(self):
        a = BitSet.from_iterable([3, 1])
        assert repr(a) == "BitSet({1, 3})"

    def test_contains_negative(self):
        assert -1 not in BitSet.from_iterable([0, 1])


class TestAlgebraProperties:
    @given(small_sets, small_sets)
    def test_union_matches_set_union(self, xs, ys):
        assert set(BitSet.from_iterable(xs) | BitSet.from_iterable(ys)) == xs | ys

    @given(small_sets, small_sets)
    def test_intersection_matches(self, xs, ys):
        assert set(BitSet.from_iterable(xs) & BitSet.from_iterable(ys)) == xs & ys

    @given(small_sets, small_sets)
    def test_difference_matches(self, xs, ys):
        assert set(BitSet.from_iterable(xs) - BitSet.from_iterable(ys)) == xs - ys

    @given(small_sets, small_sets)
    def test_symmetric_difference_matches(self, xs, ys):
        assert set(BitSet.from_iterable(xs) ^ BitSet.from_iterable(ys)) == xs ^ ys

    @given(small_sets, small_sets)
    def test_subset_superset(self, xs, ys):
        a, b = BitSet.from_iterable(xs), BitSet.from_iterable(ys)
        assert a.issubset(b) == xs.issubset(ys)
        assert a.issuperset(b) == xs.issuperset(ys)
        assert a.isdisjoint(b) == xs.isdisjoint(ys)
        assert a.intersects(b) == bool(xs & ys)

    @given(small_sets)
    def test_len_and_iteration(self, xs):
        b = BitSet.from_iterable(xs)
        assert len(b) == len(xs)
        assert sorted(b) == sorted(xs)

    @given(small_sets, small_sets)
    def test_equality_and_hash(self, xs, ys):
        a, b = BitSet.from_iterable(xs), BitSet.from_iterable(ys)
        assert (a == b) == (xs == ys)
        if xs == ys:
            assert hash(a) == hash(b)


class TestPopcount:
    @given(st.integers(min_value=0, max_value=1 << 300))
    def test_matches_binary_digits(self, x):
        assert popcount(x) == bin(x).count("1")

    def test_no_bit_count_outside_the_helper(self):
        """``int.bit_count`` is 3.10+; the package supports 3.9, so every
        population count goes through :data:`popcount`."""
        src = Path(bitset.__file__).resolve().parents[2]
        pattern = re.compile(r"\.bit_count\(")
        offenders = [
            f"{path.relative_to(src)}:{number}"
            for path in sorted(src.rglob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if pattern.search(line)
        ]
        assert offenders == []
