"""Machine-checkable certificates backing the conflict pre-filter verdicts.

A certifying lint diagnostic never asks to be trusted: it attaches a
JSON-safe certificate that an independent checker can replay against the STG
with exact rational arithmetic.  Two kinds exist:

``affine-code``
    A rational matrix ``C`` with ``C @ B = I`` (``I`` the incidence matrix,
    ``B`` the signal-balance matrix).  Then for any two reachable markings
    ``M1 = M0 + I x1`` and ``M2 = M0 + I x2`` with equal codes the balance
    difference ``B (x2 - x1)`` vanishes, hence ``M2 - M1 = C B (x2 - x1) =
    0``: *no two distinct reachable markings can agree on all signal codes*,
    so USC (and a fortiori CSC) holds.  Verification multiplies ``C @ B``
    and compares against ``I`` entry by entry.

``state-equation-lp``
    The claim that over the polyhedron ``{x1, x2 >= 0, M0 + I x_i >= 0,
    B (x2 - x1) = 0}`` every component of ``I (x2 - x1)`` has maximum and
    minimum 0 — i.e. the state-equation relaxation admits no code-preserving
    marking change.  Verification re-solves the same LPs with the exact
    rational simplex; the certificate is a replayable claim rather than a
    succinct witness (the simplex exposes no duals).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Dict, Optional

import numpy as np

from repro.stg.stg import STG

CERT_AFFINE = "affine-code"
CERT_LP = "state-equation-lp"

#: Bump when a certificate payload layout changes.
CERT_VERSION = 1


# -- matrices ------------------------------------------------------------------


def balance_matrix(stg: STG) -> np.ndarray:
    """The ``|Z| x |T|`` signal-balance matrix (see RuleContext.balance)."""
    from repro.petri.incidence import balance_matrix_from_changes

    changes = [stg.signal_change(t) for t in range(stg.net.num_transitions)]
    return balance_matrix_from_changes(changes, len(stg.signals))


# -- affine-code certificates --------------------------------------------------


def build_affine_certificate(stg: STG) -> Optional[Dict[str, Any]]:
    """Try to express every incidence row as a combination of balance rows.

    ``C[p, z] = δ_t·I[p, t]`` for every edge ``t`` of ``z`` (0 for a signal
    without transitions), read off :func:`repro.petri.incidence.signal_flows`.
    Returns the certificate dict on success, ``None`` when some place's
    token flow is not an affine function of the code (the common case).
    """
    from repro.petri.incidence import incidence_matrix, signal_flows

    if stg.has_dummies():
        return None
    net = stg.net
    if net.num_transitions == 0 or not stg.signals:
        return None
    changes = [stg.signal_change(t) for t in range(net.num_transitions)]
    flows = signal_flows(changes, incidence_matrix(net))
    if flows is None:
        return None
    zero = np.zeros(net.num_places, dtype=np.int64)
    columns = [flows.get(z, zero) for z in range(len(stg.signals))]
    matrix = [
        [str(int(column[p])) for column in columns] for p in range(net.num_places)
    ]
    return {
        "kind": CERT_AFFINE,
        "version": CERT_VERSION,
        "signals": list(stg.signals),
        "places": list(net.places),
        "transitions": list(net.transitions),
        "matrix": matrix,
    }


def _verify_affine(stg: STG, certificate: Dict[str, Any]) -> bool:
    from repro.petri.incidence import incidence_matrix

    net = stg.net
    if (
        certificate.get("signals") != list(stg.signals)
        or certificate.get("places") != list(net.places)
        or certificate.get("transitions") != list(net.transitions)
    ):
        return False
    if stg.has_dummies():
        return False
    rows = certificate.get("matrix")
    if not isinstance(rows, list) or len(rows) != net.num_places:
        return False
    incidence = incidence_matrix(net)
    balance = balance_matrix(stg)
    num_signals = len(stg.signals)
    for p, row in enumerate(rows):
        if len(row) != num_signals:
            return False
        coefficients = [Fraction(value) for value in row]
        for t in range(net.num_transitions):
            combined = sum(
                coefficients[z] * int(balance[z, t]) for z in range(num_signals)
            )
            if combined != int(incidence[p, t]):
                return False
    return True


# -- state-equation LP certificates --------------------------------------------


def build_lp_certificate(stg: STG) -> Optional[Dict[str, Any]]:
    """Run the state-equation relaxation; certificate dict if conclusive."""
    if stg.has_dummies():
        return None
    if not state_equation_usc_safe(stg):
        return None
    return {
        "kind": CERT_LP,
        "version": CERT_VERSION,
        "signals": list(stg.signals),
        "places": list(stg.net.places),
        "transitions": list(stg.net.transitions),
        "claim": "max/min of every component of I(x2-x1) over the "
        "code-balanced state-equation polyhedron is 0",
    }


def state_equation_usc_safe(stg: STG) -> bool:
    """Exact LP check: no code-preserving marking change is state-equation
    feasible.

    Variables ``x1, x2 >= 0`` (two Parikh vectors), constraints
    ``M0 + I x_i >= 0`` and ``B (x2 - x1) = 0``; for every place the token
    flow difference ``(I (x2 - x1))_p`` is maximised and minimised.  All
    optima 0 proves that any two reachable markings with equal signal codes
    coincide, hence USC (and CSC) hold.  Sound but incomplete: a nonzero or
    unbounded optimum is *inconclusive*, never a conflict verdict.
    """
    from repro.lp import LinearProgram, solve_lp
    from repro.petri.incidence import incidence_matrix

    net = stg.net
    n = net.num_transitions
    if n == 0:
        return True
    incidence = incidence_matrix(net)
    balance = balance_matrix(stg)
    initial = net.initial_marking
    constraints = []
    for row in balance:
        if row.any():
            coeffs = [-int(c) for c in row] + [int(c) for c in row]
            constraints.append((coeffs, "==", 0))
    for p in range(net.num_places):
        row = [int(c) for c in incidence[p]]
        if not any(row):
            continue
        bound = -int(initial[p])
        constraints.append((row + [0] * n, ">=", bound))
        constraints.append(([0] * n + row, ">=", bound))

    for p in range(net.num_places):
        row = incidence[p]
        if not row.any():
            continue
        objective = [Fraction(-int(c)) for c in row] + [
            Fraction(int(c)) for c in row
        ]
        for sign in (1, -1):
            problem = LinearProgram.feasibility(2 * n, constraints)
            problem.objective = [sign * c for c in objective]
            result = solve_lp(problem)
            if not result.feasible:
                return False  # x1 = x2 = 0 is always feasible; be paranoid
            if result.objective_value is None or result.objective_value > 0:
                return False
    return True


def _verify_lp(stg: STG, certificate: Dict[str, Any]) -> bool:
    if (
        certificate.get("signals") != list(stg.signals)
        or certificate.get("places") != list(stg.net.places)
        or certificate.get("transitions") != list(stg.net.transitions)
    ):
        return False
    if stg.has_dummies():
        return False
    return state_equation_usc_safe(stg)


# -- dispatch ------------------------------------------------------------------


def verify_certificate(stg: STG, certificate: Dict[str, Any]) -> bool:
    """Replay ``certificate`` against ``stg``; True iff the claim checks out."""
    if not isinstance(certificate, dict):
        return False
    if certificate.get("version") != CERT_VERSION:
        return False
    kind = certificate.get("kind")
    if kind == CERT_AFFINE:
        return _verify_affine(stg, certificate)
    if kind == CERT_LP:
        return _verify_lp(stg, certificate)
    return False
