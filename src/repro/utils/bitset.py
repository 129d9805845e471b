"""A compact fixed-universe bitset backed by a Python integer.

The unfolding engine manipulates many sets of events and conditions drawn from
a fixed, densely indexed universe (event 0..q-1, condition 0..p-1).  Python
integers give constant-factor-fast bitwise set algebra and hash support, which
is exactly what the causality/conflict/concurrency relations need.

The class is immutable: every operation returns a new :class:`BitSet`.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

#: Number of set bits of a non-negative integer: ``int.bit_count`` where the
#: interpreter has it (3.10+), else the string-count fallback.
popcount: Callable[[int], int] = getattr(
    int, "bit_count", lambda x: bin(x).count("1")
)


class BitSet:
    """An immutable set of small non-negative integers.

    >>> a = BitSet.from_iterable([1, 3, 5])
    >>> b = BitSet.from_iterable([3, 4])
    >>> sorted(a | b)
    [1, 3, 4, 5]
    >>> 3 in (a & b)
    True
    >>> len(a - b)
    2
    """

    __slots__ = ("_bits",)

    def __init__(self, bits: int = 0):
        if bits < 0:
            raise ValueError("BitSet cannot hold negative members")
        self._bits = bits

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_iterable(cls, items: Iterable[int]) -> "BitSet":
        bits = 0
        for item in items:
            if item < 0:
                raise ValueError("BitSet members must be non-negative")
            bits |= 1 << item
        return cls(bits)

    @classmethod
    def singleton(cls, item: int) -> "BitSet":
        if item < 0:
            raise ValueError("BitSet members must be non-negative")
        return cls(1 << item)

    @classmethod
    def empty(cls) -> "BitSet":
        return cls(0)

    # -- accessors ---------------------------------------------------------

    @property
    def bits(self) -> int:
        """The underlying integer mask."""
        return self._bits

    def __contains__(self, item: int) -> bool:
        return item >= 0 and (self._bits >> item) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        bits = self._bits
        index = 0
        while bits:
            trailing = (bits & -bits).bit_length() - 1
            index = trailing
            yield index
            bits &= bits - 1

    def __len__(self) -> int:
        return popcount(self._bits)

    def __bool__(self) -> bool:
        return self._bits != 0

    # -- set algebra ---------------------------------------------------------

    def __or__(self, other: "BitSet") -> "BitSet":
        return BitSet(self._bits | other._bits)

    def __and__(self, other: "BitSet") -> "BitSet":
        return BitSet(self._bits & other._bits)

    def __sub__(self, other: "BitSet") -> "BitSet":
        return BitSet(self._bits & ~other._bits)

    def __xor__(self, other: "BitSet") -> "BitSet":
        return BitSet(self._bits ^ other._bits)

    def add(self, item: int) -> "BitSet":
        """Return a new set with ``item`` included."""
        return BitSet(self._bits | (1 << item))

    def remove(self, item: int) -> "BitSet":
        """Return a new set with ``item`` excluded (no error if absent)."""
        return BitSet(self._bits & ~(1 << item))

    def isdisjoint(self, other: "BitSet") -> bool:
        return self._bits & other._bits == 0

    def issubset(self, other: "BitSet") -> bool:
        return self._bits & ~other._bits == 0

    def issuperset(self, other: "BitSet") -> bool:
        return other.issubset(self)

    def intersects(self, other: "BitSet") -> bool:
        return not self.isdisjoint(other)

    # -- dunder plumbing ---------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BitSet) and self._bits == other._bits

    def __hash__(self) -> int:
        return hash(self._bits)

    def __repr__(self) -> str:
        return f"BitSet({{{', '.join(map(str, self))}}})"
