"""Two-phase primal simplex over exact rationals.

Solves ``max c x  s.t.  A x (<=|>=|==) b,  x >= 0`` with
:class:`fractions.Fraction` arithmetic — no numerical tolerance games, which
matters because a certifying relaxation must never declare a feasible
system infeasible.  Bland's rule guarantees termination.

The implementation is the textbook dense tableau, but each row is stored
as a list of integer numerators over one shared positive denominator
instead of per-cell :class:`~fractions.Fraction` objects: pivoting then
runs on machine integers (one gcd-reduction per updated row) rather than
constructing and normalising a ``Fraction`` per cell per pivot — the same
exact values, the same Bland pivot sequence, several times faster on the
nested-pair relaxation LPs.  Problem sizes here are a few dozen
variables/constraints, where exact arithmetic is entirely affordable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import List, Optional, Sequence, Tuple


@dataclass
class LinearProgram:
    """``max objective . x`` subject to ``rows[i] . x (senses[i]) rhs[i]``,
    ``x >= 0``."""

    num_vars: int
    rows: List[List[Fraction]]
    senses: List[str]
    rhs: List[Fraction]
    objective: List[Fraction]

    @classmethod
    def feasibility(
        cls,
        num_vars: int,
        constraints: Sequence[Tuple[Sequence[float], str, float]],
    ) -> "LinearProgram":
        """A pure feasibility problem (zero objective)."""
        rows, senses, rhs = [], [], []
        for coeffs, sense, bound in constraints:
            if sense not in ("<=", ">=", "=="):
                raise ValueError(f"bad sense {sense!r}")
            rows.append([Fraction(c) for c in coeffs])
            senses.append(sense)
            rhs.append(Fraction(bound))
        return cls(
            num_vars=num_vars,
            rows=rows,
            senses=senses,
            rhs=rhs,
            objective=[Fraction(0)] * num_vars,
        )

    def add_upper_bounds(self, bound: float) -> None:
        """Add ``x_i <= bound`` for every variable (0-1 relaxations)."""
        for i in range(self.num_vars):
            row = [Fraction(0)] * self.num_vars
            row[i] = Fraction(1)
            self.rows.append(row)
            self.senses.append("<=")
            self.rhs.append(Fraction(bound))


@dataclass
class SimplexResult:
    feasible: bool
    objective_value: Optional[Fraction]
    solution: Optional[List[Fraction]]


def _reduce_row(nums: List[int], den: int) -> Tuple[List[int], int]:
    """Divide the integer row ``nums / den`` by the gcd of all entries."""
    g = den
    for v in nums:
        if v:
            g = gcd(g, v)
            if g == 1:
                return nums, den
    if g > 1:
        return [v // g for v in nums], den // g
    return nums, den


def _int_row(values: Sequence[Fraction]) -> List[object]:
    """A Fraction row as ``[numerators, shared positive denominator]``."""
    den = 1
    for value in values:
        d = value.denominator
        den = den * d // gcd(den, d)
    return [[value.numerator * (den // value.denominator) for value in values], den]


def solve_lp(problem: LinearProgram) -> SimplexResult:
    """Two-phase simplex; returns feasibility, optimum and a solution point.

    Unbounded problems report ``feasible=True`` with ``objective_value``
    ``None`` (the prescreen only ever asks for feasibility).
    """
    n = problem.num_vars
    m = len(problem.rows)

    # normal form: every row becomes an equality with a slack (<=: +s,
    # >=: -s + artificial, ==: artificial); rhs made non-negative first
    rows = [list(r) for r in problem.rows]
    senses = list(problem.senses)
    rhs = list(problem.rhs)
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-c for c in rows[i]]
            rhs[i] = -rhs[i]
            senses[i] = {"<=": ">=", ">=": "<=", "==": "=="}[senses[i]]

    slack_count = sum(1 for s in senses if s in ("<=", ">="))
    total = n + slack_count
    art_needed = [s in (">=", "==") for s in senses]
    artificial_count = sum(art_needed)
    width = total + artificial_count

    # The tableau lives as [numerators, denominator] pairs per row (see the
    # module docstring): signs, ratio comparisons and pivot updates all run
    # on the integer numerators, with the shared denominators kept positive
    # so sign tests never need them.
    tableau: List[List[object]] = []
    basis: List[int] = []
    slack_index = n
    art_index = total
    for i in range(m):
        row = [Fraction(0)] * width
        for j in range(n):
            row[j] = rows[i][j]
        if senses[i] == "<=":
            row[slack_index] = Fraction(1)
            basis.append(slack_index)
            slack_index += 1
        elif senses[i] == ">=":
            row[slack_index] = Fraction(-1)
            slack_index += 1
            row[art_index] = Fraction(1)
            basis.append(art_index)
            art_index += 1
        else:
            row[art_index] = Fraction(1)
            basis.append(art_index)
            art_index += 1
        row.append(rhs[i])
        tableau.append(_int_row(row))

    def pivot(objective_row) -> bool:
        """Run simplex with Bland's rule; returns False if unbounded.

        The entering test reads numerator signs; the ratio test compares
        ``rhs_i / coeff_i`` by cross-multiplication (each row's own
        denominator cancels inside the ratio, and the pivot candidates'
        numerators are positive, so the comparison never leaves integers).
        """
        while True:
            obj_nums = objective_row[0]
            entering = None
            for j in range(width):
                if obj_nums[j] > 0:
                    entering = j
                    break
            if entering is None:
                return True
            leaving = None
            best_num = best_den = 0
            for i in range(m):
                nums_i = tableau[i][0]
                coeff = nums_i[entering]
                if coeff > 0:
                    ratio_num = nums_i[-1]
                    if leaving is None:
                        best_num, best_den, leaving = ratio_num, coeff, i
                        continue
                    lhs = ratio_num * best_den
                    rhs_ = best_num * coeff
                    if lhs < rhs_ or (
                        lhs == rhs_ and basis[i] < basis[leaving]
                    ):
                        best_num, best_den, leaving = ratio_num, coeff, i
            if leaving is None:
                return False
            _do_pivot(objective_row, leaving, entering)

    def _do_pivot(objective_row, leaving, entering):
        nums_l = tableau[leaving][0]
        p = nums_l[entering]
        # leaving row / pivot value: the old denominator cancels, the pivot
        # numerator becomes the new denominator (sign-fixed positive)
        if p < 0:
            new_nums, new_den = [-v for v in nums_l], -p
        else:
            new_nums, new_den = list(nums_l), p
        new_nums, new_den = _reduce_row(new_nums, new_den)
        tableau[leaving] = [new_nums, new_den]
        for i in range(m):
            if i == leaving:
                continue
            nums_i, den_i = tableau[i]
            factor = nums_i[entering]
            if factor:
                merged = [
                    a * new_den - factor * b for a, b in zip(nums_i, new_nums)
                ]
                tableau[i] = list(_reduce_row(merged, den_i * new_den))
        factor = objective_row[0][entering]
        if factor:
            merged = [
                a * new_den - factor * b
                for a, b in zip(objective_row[0], new_nums)
            ]
            objective_row[0], objective_row[1] = _reduce_row(
                merged, objective_row[1] * new_den
            )
        basis[leaving] = entering

    # phase 1: minimise the artificial sum (maximise its negation)
    if artificial_count:
        p1_nums = [0] * width + [0]
        for j in range(total, width):
            p1_nums[j] = -1
        phase1: List[object] = [p1_nums, 1]
        # express in terms of the basis (artificials are basic)
        for i in range(m):
            if basis[i] >= total:
                nums_i, den_i = tableau[i]
                merged = [
                    a * den_i + b * phase1[1]
                    for a, b in zip(phase1[0], nums_i)
                ]
                phase1 = list(_reduce_row(merged, phase1[1] * den_i))
        bounded = pivot(phase1)
        assert bounded, "phase 1 is always bounded"
        if phase1[0][-1] != 0:
            return SimplexResult(False, None, None)
        # drive any lingering artificial out of the basis if possible
        for i in range(m):
            if basis[i] >= total:
                nums_i = tableau[i][0]
                for j in range(total):
                    if nums_i[j] != 0:
                        _do_pivot(phase1, i, j)
                        break

    # phase 2
    objective_fracs = [Fraction(0)] * width + [Fraction(0)]
    for j in range(n):
        objective_fracs[j] = Fraction(problem.objective[j])
    for j in range(total, width):
        objective_fracs[j] = Fraction(-10**12)  # keep artificials out
    objective_row = _int_row(objective_fracs)
    for i in range(m):
        factor = objective_row[0][basis[i]]
        if factor:
            nums_i, den_i = tableau[i]
            merged = [
                a * den_i - factor * b
                for a, b in zip(objective_row[0], nums_i)
            ]
            objective_row = list(
                _reduce_row(merged, objective_row[1] * den_i)
            )
    bounded = pivot(objective_row)

    solution = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            nums_i, den_i = tableau[i]
            solution[basis[i]] = Fraction(nums_i[-1], den_i)
    if not bounded:
        return SimplexResult(True, None, solution)
    value = sum(
        c * x for c, x in zip(problem.objective, solution)
    )
    return SimplexResult(True, value, solution)
