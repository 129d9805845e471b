"""Unit and property tests for cubes, covers and Quine-McCluskey."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.synthesis.boolean import (
    Cover,
    Cube,
    cover_from_minterms,
    minimise,
    prime_implicants,
)
from repro.utils.bitset import popcount


class TestCube:
    def test_from_minterm(self):
        c = Cube.from_minterm(0b101, 3)
        assert c.contains(0b101)
        assert not c.contains(0b111)

    def test_values_outside_mask_rejected(self):
        with pytest.raises(ValueError):
            Cube(0b01, 0b10)

    def test_merge_adjacent(self):
        a = Cube.from_minterm(0b00, 2)
        b = Cube.from_minterm(0b01, 2)
        merged = a.merge(b)
        assert merged is not None
        assert merged.contains(0b00) and merged.contains(0b01)
        assert not merged.contains(0b10)

    def test_merge_non_adjacent(self):
        a = Cube.from_minterm(0b00, 2)
        b = Cube.from_minterm(0b11, 2)
        assert a.merge(b) is None

    def test_merge_different_masks(self):
        assert Cube(0b11, 0b00).merge(Cube(0b01, 0b01)) is None

    def test_covers_cube(self):
        big = Cube(0b01, 0b01)      # x0
        small = Cube(0b11, 0b01)    # x0 & !x1
        assert big.covers_cube(small)
        assert not small.covers_cube(big)

    def test_to_string(self):
        names = ["a", "b"]
        assert Cube(0b11, 0b01).to_string(names) == "a b'"
        assert Cube(0, 0).to_string(names) == "1"


class TestMinimise:
    def test_full_function(self):
        cover = minimise({0, 1, 2, 3}, set(), 2)
        assert len(cover) == 1
        assert cover.cubes[0].mask == 0

    def test_empty_function(self):
        cover = minimise(set(), set(), 3)
        assert len(cover) == 0
        assert not cover.evaluate(0)

    def test_classic_example(self):
        """f = sum m(0,1,2,5,6,7) over 3 vars (a classic QM exercise)."""
        cover = minimise({0, 1, 2, 5, 6, 7}, set(), 3)
        for m in range(8):
            assert cover.evaluate(m) == (m in {0, 1, 2, 5, 6, 7})
        assert len(cover) <= 3

    def test_dont_cares_simplify(self):
        # on {1}, dc {3}: x0 alone suffices instead of x0 & !x1
        cover = minimise({0b01}, {0b11}, 2)
        assert len(cover) == 1
        assert popcount(cover.cubes[0].mask) == 1

    def test_xor_needs_two_cubes(self):
        cover = minimise({0b01, 0b10}, set(), 2)
        assert len(cover) == 2

    @settings(max_examples=120, deadline=None)
    @given(
        st.sets(st.integers(0, 15)),
        st.sets(st.integers(0, 15)),
    )
    def test_correctness_property(self, on, dc):
        dc = dc - on
        cover = minimise(on, dc, 4)
        for m in range(16):
            if m in on:
                assert cover.evaluate(m), f"on-set minterm {m} not covered"
            elif m not in dc:
                assert not cover.evaluate(m), f"off-set minterm {m} covered"

    @settings(max_examples=60, deadline=None)
    @given(st.sets(st.integers(0, 15), min_size=1))
    def test_never_larger_than_trivial_cover(self, on):
        cover = minimise(on, set(), 4)
        trivial = cover_from_minterms(on, 4)
        assert cover.literal_count() <= trivial.literal_count()


class TestPrimes:
    def test_primes_are_maximal(self):
        on = {0, 1, 2, 5, 6, 7}
        primes = prime_implicants(on, set(), 3)
        for p in primes:
            # expanding any cared literal must leave the on-set
            for v in range(3):
                if not (p.mask >> v) & 1:
                    continue
                expanded = Cube(p.mask & ~(1 << v), p.values & ~(1 << v))
                minterms = [
                    m for m in range(8) if expanded.contains(m)
                ]
                assert any(m not in on for m in minterms)


class TestCoverQueries:
    def test_unateness(self):
        names = 2
        pos = Cover([Cube(0b01, 0b01), Cube(0b10, 0b10)], names)  # a + b
        assert pos.is_unate()
        assert pos.is_positive_unate()
        mixed = Cover([Cube(0b01, 0b01), Cube(0b01, 0b00)], names)  # a + a'
        assert not mixed.is_unate()

    def test_variables_used(self):
        cover = Cover([Cube(0b101, 0b001)], 3)
        assert cover.variables_used() == {0, 2}

    def test_to_string(self):
        cover = Cover([Cube(0b11, 0b01), Cube(0b10, 0b10)], 2)
        assert cover.to_string(["a", "b"]) == "a b' + b"
        assert Cover([], 2).to_string(["a", "b"]) == "0"
