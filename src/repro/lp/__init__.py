"""A small exact-rational linear programming layer.

The paper notes that keeping all constraints linear lets "more good
heuristics" be applied.  One classical such heuristic — used by the related
deadlock-checking work [8] it builds on — is the *LP relaxation prescreen*:
if the rational relaxation of the integer conflict system is infeasible, the
integer system is too, and the (potentially exponential) search can be
skipped entirely.  This package provides an exact substrate for it: a
fractions-exact two-phase simplex for feasibility and optimisation over
rational polyhedra, used by the certifying lint rules and the facts
engine (the verifier's own relaxation lives in :mod:`repro.refine`).
"""

from repro.lp.simplex import LinearProgram, SimplexResult, solve_lp

__all__ = ["LinearProgram", "SimplexResult", "solve_lp"]
