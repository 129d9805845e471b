"""Dual-certified refinement of the conflict-system relaxation.

The paper's ILP encoding reaches more markings than the STG ever does, so
a feasible relaxation does not mean a real conflict.  This package closes
part of that gap: it maximises each place's relaxed token-flow difference
over the nested-pair LP, and an optimum below 1 proves the *integral*
difference is zero (Chvátal–Gomory rounding).  The loop either *refutes*
the conflict system with a replayable exact-arithmetic dual certificate or
falls through to the exact search with a per-place movability
classification the search can prune on.

Modules
=======

:mod:`~repro.refine.relaxation`
    The canonical constraint system (shared row order with
    ``core.prescreen``).
:mod:`~repro.refine.certificate`
    Dual-bound certificates and the LP-free replayer.
:mod:`~repro.refine.solver`
    The shared-relaxation sweep backends (incremental HiGHS / linprog).
:mod:`~repro.refine.cegar`
    The driving loop (:func:`refine_prescreen`).
"""

from repro.refine.cegar import RefinementOutcome, refine_prescreen
from repro.refine.certificate import (
    REFINE_VERSION,
    DualBound,
    RefinementCertificate,
    check_dual_bound,
    verify_certificate,
)
from repro.refine.relaxation import Relaxation, build_relaxation
from repro.refine.solver import (
    HighsSweepSolver,
    LinprogSweepSolver,
    SolveResult,
    make_sweep_solver,
)

__all__ = [
    "DualBound",
    "HighsSweepSolver",
    "LinprogSweepSolver",
    "REFINE_VERSION",
    "RefinementCertificate",
    "RefinementOutcome",
    "Relaxation",
    "SolveResult",
    "build_relaxation",
    "check_dual_bound",
    "make_sweep_solver",
    "refine_prescreen",
    "verify_certificate",
]
