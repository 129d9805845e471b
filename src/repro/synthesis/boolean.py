"""Two-level boolean minimisation: cubes, covers, Quine-McCluskey.

A *cube* over n variables assigns each variable 0, 1 or '-' (don't care);
a *cover* is a set of cubes whose union is the function's on-set.  The
minimiser is exact in its prime-generation phase (Quine-McCluskey) and uses
essential-prime extraction followed by a greedy set cover for the selection
phase — exact enough for STG-sized functions while staying simple.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.utils.bitset import popcount


@dataclass(frozen=True)
class Cube:
    """A product term: ``mask`` bits mark cared-about variables, ``values``
    their required values (subset of mask)."""

    mask: int
    values: int

    def __post_init__(self):
        if self.values & ~self.mask:
            raise ValueError("cube values outside its mask")

    @classmethod
    def from_minterm(cls, minterm: int, num_vars: int) -> "Cube":
        return cls((1 << num_vars) - 1, minterm)

    def contains(self, minterm: int) -> bool:
        return minterm & self.mask == self.values

    def covers_cube(self, other: "Cube") -> bool:
        """True if every minterm of ``other`` is a minterm of this cube."""
        return (
            self.mask & other.mask == self.mask
            and other.values & self.mask == self.values
        )

    def merge(self, other: "Cube") -> Optional["Cube"]:
        """Combine two cubes differing in exactly one cared literal."""
        if self.mask != other.mask:
            return None
        delta = self.values ^ other.values
        if popcount(delta) != 1:
            return None
        new_mask = self.mask & ~delta
        return Cube(new_mask, self.values & new_mask)

    def literals(self, num_vars: int) -> List[Tuple[int, int]]:
        """The cube's literals as (variable, value) pairs."""
        result = []
        for v in range(num_vars):
            if (self.mask >> v) & 1:
                result.append((v, (self.values >> v) & 1))
        return result

    def to_string(self, names: Sequence[str]) -> str:
        parts = []
        for v, value in self.literals(len(names)):
            parts.append(names[v] if value else names[v] + "'")
        return " ".join(parts) if parts else "1"


class Cover:
    """A sum of cubes with evaluation and unateness queries."""

    def __init__(self, cubes: Iterable[Cube], num_vars: int):
        self.cubes: Tuple[Cube, ...] = tuple(cubes)
        self.num_vars = num_vars

    def evaluate(self, minterm: int) -> bool:
        return any(cube.contains(minterm) for cube in self.cubes)

    def literal_count(self) -> int:
        return sum(popcount(cube.mask) for cube in self.cubes)

    def variables_used(self) -> Set[int]:
        used: Set[int] = set()
        for cube in self.cubes:
            for v in range(self.num_vars):
                if (cube.mask >> v) & 1:
                    used.add(v)
        return used

    def polarity_of(self, var: int) -> FrozenSet[int]:
        """The set of polarities (0/1) with which ``var`` appears."""
        polarities = set()
        for cube in self.cubes:
            if (cube.mask >> var) & 1:
                polarities.add((cube.values >> var) & 1)
        return frozenset(polarities)

    def is_unate(self) -> bool:
        """Every variable appears with a single polarity (syntactic
        unateness — the cover is implementable by a monotonic gate modulo
        input polarities; positive-unate in all variables means AND/OR
        network, cf. the paper's normalcy discussion)."""
        return all(len(self.polarity_of(v)) <= 1 for v in range(self.num_vars))

    def is_positive_unate(self) -> bool:
        return all(
            self.polarity_of(v) <= {1} for v in range(self.num_vars)
        )

    def to_string(self, names: Sequence[str]) -> str:
        if not self.cubes:
            return "0"
        return " + ".join(cube.to_string(names) for cube in self.cubes)

    def __len__(self) -> int:
        return len(self.cubes)

    def __repr__(self) -> str:
        return f"Cover({len(self.cubes)} cubes over {self.num_vars} vars)"


def prime_implicants(
    on_set: Set[int], dc_set: Set[int], num_vars: int
) -> List[Cube]:
    """Quine-McCluskey prime generation over on-set ∪ dc-set."""
    current: Set[Cube] = {
        Cube.from_minterm(m, num_vars) for m in on_set | dc_set
    }
    primes: Set[Cube] = set()
    while current:
        merged: Set[Cube] = set()
        used: Set[Cube] = set()
        cubes = list(current)
        by_mask: Dict[int, List[Cube]] = {}
        for cube in cubes:
            by_mask.setdefault(cube.mask, []).append(cube)
        for group in by_mask.values():
            for i, a in enumerate(group):
                for b in group[i + 1:]:
                    combined = a.merge(b)
                    if combined is not None:
                        merged.add(combined)
                        used.add(a)
                        used.add(b)
        primes.update(current - used)
        current = merged
    return sorted(primes, key=lambda c: (popcount(c.mask), c.mask, c.values))


#: problem sizes up to which the covering step is solved exactly
_EXACT_COVER_LIMIT = 64


def minimise(on_set: Set[int], dc_set: Set[int], num_vars: int) -> Cover:
    """A minimal cover of ``on_set`` using ``dc_set`` freely.

    Exact prime implicants (Quine-McCluskey); essential primes first, then
    the residual covering problem is solved *exactly* by branch-and-bound
    when small (cyclic cover tables defeat plain greedy) and greedily
    otherwise.  Verified by tests to cover the on-set exactly and avoid the
    off-set.
    """
    if not on_set:
        return Cover([], num_vars)
    universe = (1 << num_vars) - 1
    if len(on_set | dc_set) == universe + 1:
        return Cover([Cube(0, 0)], num_vars)

    primes = prime_implicants(on_set, dc_set, num_vars)
    coverage: Dict[int, List[Cube]] = {
        m: [p for p in primes if p.contains(m)] for m in on_set
    }
    chosen: List[Cube] = []
    remaining = set(on_set)

    # essential primes: sole coverers of some minterm
    for minterm, coverers in coverage.items():
        if len(coverers) == 1 and coverers[0] not in chosen:
            chosen.append(coverers[0])
    for cube in chosen:
        remaining -= {m for m in remaining if cube.contains(m)}

    candidates = [p for p in primes if p not in chosen]
    if remaining:
        if len(candidates) <= _EXACT_COVER_LIMIT:
            chosen.extend(_exact_cover(remaining, candidates))
        else:
            chosen.extend(_greedy_cover(remaining, candidates))
    return Cover(chosen, num_vars)


def _greedy_cover(remaining: Set[int], candidates: List[Cube]) -> List[Cube]:
    remaining = set(remaining)
    candidates = list(candidates)
    picked: List[Cube] = []
    while remaining:
        best = max(
            candidates,
            key=lambda p: (
                sum(1 for m in remaining if p.contains(m)),
                -popcount(p.mask),
            ),
        )
        covered = {m for m in remaining if best.contains(m)}
        if not covered:
            raise RuntimeError("prime generation failed to cover the on-set")
        picked.append(best)
        candidates.remove(best)
        remaining -= covered
    return picked


def _exact_cover(remaining: Set[int], candidates: List[Cube]) -> List[Cube]:
    """Minimum-cardinality cover by branch-and-bound: branch on the coverers
    of the least-covered minterm, prune by the incumbent size."""
    best: List[Optional[List[Cube]]] = [None]

    def descend(uncovered: frozenset, picked: List[Cube]) -> None:
        if best[0] is not None and len(picked) >= len(best[0]):
            return
        if not uncovered:
            best[0] = list(picked)
            return
        target = min(
            uncovered,
            key=lambda m: sum(1 for p in candidates if p.contains(m)),
        )
        coverers = [p for p in candidates if p.contains(target)]
        if not coverers:
            raise RuntimeError("prime generation failed to cover the on-set")
        for cube in coverers:
            descend(
                frozenset(m for m in uncovered if not cube.contains(m)),
                picked + [cube],
            )

    descend(frozenset(remaining), [])
    assert best[0] is not None
    return best[0]


def cover_from_minterms(minterms: Set[int], num_vars: int) -> Cover:
    """The trivial (unminimised) cover: one full cube per minterm."""
    return Cover(
        [Cube.from_minterm(m, num_vars) for m in sorted(minterms)], num_vars
    )
