"""Relaxation prescreens for the conflict system (linear-heuristics layer).

The paper stresses that keeping the constraints linear admits "more good
heuristics".  In the nested (Proposition 1) formulation a USC conflict
exists iff some non-empty balanced window ``D`` has non-zero original-net
token flow ``I·x_D``.  The **kernel test** uses that: if every vector in the
null space of the signal-balance matrix also lies in the null space of the
token-flow matrix, then *no* balanced vector — integral or not — can change
the marking, so the STG has no USC conflict and the search can be skipped
entirely.  Each balance column holds a single ``±1`` (zero for a dummy), so
the inclusion reduces to a closed form,
:func:`~repro.petri.incidence.signal_flows`: every dummy has zero flow and
all edges of a signal carry the same signed flow.  An event column copies
its transition's column, so the test runs over the distinct transitions
occurring among the free events and costs microseconds.  Typical
conclusive case: toggle banks, whose marking is an affine function of the
code.

The stronger relaxation — the ``[0,1]``-box LP over :func:`nested_pair_rows`
with integral rounding and an exact dual certificate — lives in
:mod:`repro.refine`.  Both are *sound for "no conflict"* only; an
inconclusive answer falls through to the exact search.  Only valid
together with Proposition 1, i.e. for dynamically conflict-free STGs.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.core.context import SolverContext
from repro.petri.incidence import (
    balance_matrix_from_changes,
    signal_flows,
    transition_flow_matrix,
)

#: One relaxation row over the ``2n`` variables ``x'_0..x'_{n-1}, x''_0..``.
RelaxationRow = Tuple[Sequence[int], str, int]


def _balance_matrix(context: SolverContext) -> np.ndarray:
    """Rows: one per signal; columns: free positions; entries: edge deltas."""
    changes = [
        (context.signal_of[i], context.delta_of[i])
        for i in range(context.num_vars)
    ]
    return balance_matrix_from_changes(changes, context.num_signals)


def _flow_matrix(context: SolverContext) -> np.ndarray:
    """Rows: original places; columns: free positions; entries: token flow."""
    transitions = [
        context.prefix.events[context.order[i]].transition
        for i in range(context.num_vars)
    ]
    return transition_flow_matrix(context.prefix.net, transitions)


def kernel_prescreen(context: SolverContext) -> Optional[bool]:
    """The exact-kernel test.

    Returns ``False`` if provably no USC conflict exists (every balanced
    vector has zero token flow), ``None`` if inconclusive.
    """
    events = context.prefix.events
    transitions = sorted({events[e].transition for e in context.order})
    changes = [context.stg.signal_change(t) for t in transitions]
    flow = transition_flow_matrix(context.prefix.net, transitions)
    return None if signal_flows(changes, flow) is None else False


def nested_pair_rows(context: SolverContext) -> Iterator[RelaxationRow]:
    """The rows of the nested-pair LP relaxation, in canonical order.

    Variable layout: ``x'_0..x'_{n-1}, x''_0..x''_{n-1}`` in ``[0,1]``
    (the box itself is *not* emitted here).  Row order is part of the
    :mod:`repro.refine` certificate-replay contract — signal balance of the
    difference first, then the Proposition 1 nesting rows, then the prefix
    compatibility inequalities in condition order.
    """
    balance = _balance_matrix(context)
    prefix = context.prefix
    n = context.num_vars
    for row in balance:
        if row.any():
            coeffs = [-int(c) for c in row] + [int(c) for c in row]
            yield coeffs, "==", 0
    # x' <= x''  (Proposition 1 nesting)
    for i in range(n):
        coeffs = [0] * (2 * n)
        coeffs[i] = 1
        coeffs[n + i] = -1
        yield coeffs, "<=", 0
    # prefix compatibility for both vectors: every condition's balance >= -M_in
    for condition in prefix.conditions:
        template = [0] * n
        if condition.pre_event is not None:
            position = context.position.get(condition.pre_event)
            if position is not None:
                template[position] += 1
        for consumer in condition.post_events:
            position = context.position.get(consumer)
            if position is not None:
                template[position] -= 1
        if not any(template):
            continue
        initial = 1 if condition.pre_event is None else 0
        yield template + [0] * n, ">=", -initial
        yield [0] * n + template, ">=", -initial
