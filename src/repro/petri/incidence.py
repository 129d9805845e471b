"""Incidence matrix and the marking equation (paper Section 2.2).

For a net with places ``s_1..s_m`` and transitions ``t_1..t_n`` the incidence
matrix ``I`` is the ``m x n`` integer matrix with ``I[i,j] = +1`` if ``s_i``
is produced (only) by ``t_j``, ``-1`` if consumed (only), and the signed
net effect for weighted/self-loop arcs.  If ``M0 [sigma> M`` then
``M = M0 + I @ parikh(sigma)``; feasibility of this equation over the
non-negative integers is a necessary condition for reachability, and an exact
characterisation on acyclic nets such as unfolding prefixes.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.petri.marking import Marking
from repro.petri.net import PetriNet


def incidence_matrix(net: PetriNet) -> np.ndarray:
    """The ``m x n`` incidence matrix of ``net`` (dtype int64).

    Self-loops cancel: a place both consumed and produced with equal weight
    contributes 0, matching the paper's definition (which assumes pure nets
    but generalises naturally to the signed token flow).
    """
    matrix = np.zeros((net.num_places, net.num_transitions), dtype=np.int64)
    for t in range(net.num_transitions):
        for p, w in net.preset(t).items():
            matrix[p, t] -= w
        for p, w in net.postset(t).items():
            matrix[p, t] += w
    return matrix


def balance_matrix_from_changes(
    changes: Sequence[Tuple[Optional[int], int]], num_signals: int
) -> np.ndarray:
    """The signal-balance matrix of a column sequence (dtype int64).

    ``changes[j]`` is the ``(signal_index, delta)`` effect of column ``j``
    (``signal_index is None`` for dummies, contributing an all-zero column).
    Rows are signals.  This is the one shared builder behind the lint
    ``RuleContext.balance``, the certificate layer, the solver prescreens
    and the analysis engine — the columns just mean different things
    (net transitions vs prefix positions) at each call site.
    """
    matrix = np.zeros((num_signals, len(changes)), dtype=np.int64)
    for j, (signal, delta) in enumerate(changes):
        if signal is not None:
            matrix[signal, j] = delta
    return matrix


def transition_flow_matrix(
    net: PetriNet, transitions: Sequence[int]
) -> np.ndarray:
    """Token-flow matrix over an explicit column list (dtype int64).

    Column ``j`` is the incidence column of ``transitions[j]``; repeats are
    allowed (unfolding prefixes instantiate a transition many times), which
    is why this is not just a column slice of :func:`incidence_matrix`.
    """
    matrix = np.zeros((net.num_places, len(transitions)), dtype=np.int64)
    for j, transition in enumerate(transitions):
        for p, w in net.preset(transition).items():
            matrix[p, j] -= w
        for p, w in net.postset(transition).items():
            matrix[p, j] += w
    return matrix


def signal_flows(
    changes: Sequence[Tuple[Optional[int], int]], flow: np.ndarray
) -> Optional[Dict[int, np.ndarray]]:
    """The token flow of each signal, if the flow is a function of the code.

    ``changes`` and ``flow`` describe the same columns, as for
    :func:`balance_matrix_from_changes` and :func:`transition_flow_matrix`.
    The balance matrix ``B`` has one ``±1`` entry per column (none for a
    dummy), so its kernel is spanned by ``e_j`` for each dummy column and by
    ``e_j − δ_j·δ_r·e_r`` for any two columns ``j``, ``r`` of one signal.
    Hence ``ker B ⊆ ker flow`` holds exactly when every dummy column of
    ``flow`` is zero and all columns of a signal carry the same signed flow
    ``δ·flow[:, j]``.  Returns that common vector per signal (signals with no
    column are absent), or ``None`` when the inclusion fails.  Integer
    comparisons only: no elimination and no kernel basis.
    """
    flows: Dict[int, np.ndarray] = {}
    for j, (signal, delta) in enumerate(changes):
        column = flow[:, j]
        if signal is None:
            if column.any():
                return None
            continue
        signed = delta * column
        if not np.array_equal(flows.setdefault(signal, signed), signed):
            return None
    return flows


def parikh_vector(net: PetriNet, sequence: Iterable[int]) -> np.ndarray:
    """Occurrence counts of each transition in ``sequence`` (length n vector)."""
    vector = np.zeros(net.num_transitions, dtype=np.int64)
    for transition in sequence:
        vector[transition] += 1
    return vector


def state_equation_result(
    net: PetriNet, initial: Marking, parikh: np.ndarray
) -> np.ndarray:
    """``M0 + I @ x`` as an integer vector (may be negative for invalid x)."""
    return np.asarray(initial.counts, dtype=np.int64) + incidence_matrix(net) @ parikh


def marking_equation_feasible(
    net: PetriNet,
    target: Marking,
    initial: Optional[Marking] = None,
    max_firings: Optional[int] = None,
) -> bool:
    """Check feasibility of ``M = M0 + I x`` with ``x`` a non-negative integer.

    This is the necessary condition for reachability from the paper's
    Section 2.2 (equation (1)).  We solve it by branch-and-bound over the
    transition counts using the library's own 0-1/integer solver is overkill
    here; instead a bounded depth-first search over the integer lattice with
    Gaussian pruning would be heavy, so we use a simple and exact approach:
    rational feasibility via least squares first (fast rejection), then
    bounded integer search.

    ``max_firings`` caps the total number of transition firings considered
    (sum of the Parikh vector); when ``None`` a heuristic bound derived from
    the token counts is used.  On acyclic nets every transition fires at most
    ``k`` times where ``k`` bounds the tokens, so the heuristic is exact for
    the unfolding use case; on cyclic nets the check is then *semi*-complete
    (a ``True`` answer is always sound, ``False`` means "not within bound").
    """
    initial = initial if initial is not None else net.initial_marking
    matrix = incidence_matrix(net)
    delta = np.asarray(target.counts, dtype=np.int64) - np.asarray(
        initial.counts, dtype=np.int64
    )
    n = net.num_transitions
    if n == 0:
        return not delta.any()

    # Fast rational rejection: if I x = delta has no real solution at all,
    # the integer system is infeasible too.
    solution, residuals, rank, _ = np.linalg.lstsq(
        matrix.astype(float), delta.astype(float), rcond=None
    )
    reconstructed = matrix.astype(float) @ solution
    if not np.allclose(reconstructed, delta.astype(float), atol=1e-6):
        return False

    if max_firings is None:
        # Heuristic: enough firings to move every token a full lap.
        max_firings = max(8, 2 * (target.total() + initial.total() + n))

    # Depth-first search over transition counts with a running residual.
    order = list(range(n))

    def search(index: int, remaining: int, residual: np.ndarray) -> bool:
        if not residual.any():
            return True
        if index == n or remaining == 0:
            return False
        transition = order[index]
        column = matrix[:, transition]
        # Try counts 0..remaining for this transition.
        for count in range(remaining + 1):
            if search(index + 1, remaining - count, residual - count * column):
                return True
        return False

    return search(0, int(max_firings), delta.copy())
