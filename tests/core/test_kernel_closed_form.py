"""The closed-form kernel test equals Fraction elimination, and so does C301.

``kernel_prescreen`` and the C301 affine-code certificate both rest on
:func:`repro.petri.incidence.signal_flows`, which decides ``ker B ⊆ ker F``
by comparing signed token flows per signal.  The references kept here are
the slow, obviously-exact forms it replaced: an integer kernel basis of the
balance matrix by Fraction Gauss-Jordan elimination, with ``flow @ v`` for
every basis vector, and a Fraction solve of ``C @ B = I`` per place.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np
import pytest

from repro import obs
from repro.core import check_csc, check_usc
from repro.core.context import SolverContext
from repro.core.prescreen import _balance_matrix, _flow_matrix, kernel_prescreen
from repro.core.search import SearchStats
from repro.core.verifier import structurally_nested
from repro.core.window import WindowSearch
from repro.exceptions import UnfoldingError
from repro.fuzz.generate import generate_case
from repro.lint import build_affine_certificate, verify_certificate
from repro.lint.certificates import balance_matrix
from repro.models import TABLE1_BENCHMARKS
from repro.petri.analysis import _integer_kernel
from repro.obs import Tracer
from repro.petri.incidence import (
    balance_matrix_from_changes,
    incidence_matrix,
    signal_flows,
    transition_flow_matrix,
)
from repro.stg.parser import parse_stg
from repro.stg.stg import STG
from repro.unfolding import unfold
from repro.unfolding.unfolder import UnfoldingOptions

ROOT = Path(__file__).resolve().parents[2]
G_FILES = sorted(ROOT.glob("examples/*.g")) + sorted(
    ROOT.glob("perfbench/inputs/*.g")
)


def reference_prescreen(context: SolverContext) -> Optional[bool]:
    """The elimination form: ``False`` iff ``flow @ v == 0`` on a kernel
    basis of the per-event balance matrix."""
    flow = _flow_matrix(context)
    for vector in _integer_kernel(_balance_matrix(context)):
        if (flow @ vector).any():
            return None
    return False


def solve_exact(
    matrix: List[List[Fraction]], rhs: List[Fraction]
) -> Optional[List[Fraction]]:
    """One solution of ``matrix @ x = rhs`` by Gauss-Jordan elimination over
    Fractions, free variables pinned to 0 (None if inconsistent)."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    work = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    pivot_of_col: Dict[int, int] = {}
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = work[r][c]
        work[r] = [v / inv for v in work[r]]
        for i in range(rows):
            if i != r and work[i][c] != 0:
                factor = work[i][c]
                work[i] = [a - factor * b for a, b in zip(work[i], work[r])]
        pivot_of_col[c] = r
        r += 1
        if r == rows:
            break
    if any(work[i][cols] != 0 for i in range(r, rows)):
        return None
    solution = [Fraction(0)] * cols
    for c, pr in pivot_of_col.items():
        solution[c] = work[pr][cols]
    return solution


def reference_affine_matrix(stg: STG) -> Optional[List[List[str]]]:
    """``C`` with ``C @ B = I`` solved place by place, as strings."""
    if stg.has_dummies() or stg.net.num_transitions == 0 or not stg.signals:
        return None
    incidence = incidence_matrix(stg.net)
    balance = balance_matrix(stg)
    bt = [[Fraction(int(v)) for v in column] for column in balance.T]
    matrix = []
    for row in incidence:
        coefficients = solve_exact(bt, [Fraction(int(v)) for v in row])
        if coefficients is None:
            return None
        matrix.append([str(c) for c in coefficients])
    return matrix


def assert_certificate_matches(stg: STG) -> None:
    certificate = build_affine_certificate(stg)
    expected = reference_affine_matrix(stg)
    if expected is None:
        assert certificate is None
    else:
        assert certificate is not None
        assert certificate["matrix"] == expected
        assert verify_certificate(stg, certificate)


def named_stgs():
    for name in sorted(TABLE1_BENCHMARKS):
        yield pytest.param(TABLE1_BENCHMARKS[name], id=name)
    for path in G_FILES:
        yield pytest.param(
            lambda path=path: parse_stg(path.read_text()),
            id=f"{path.parent.name}/{path.name}",
        )


def nested_generated_prefixes():
    """Nested ``generate_case(11, i < 300)`` whose prefix stays within 400
    events."""
    for index in range(300):
        stg = generate_case(11, index).stg
        try:
            prefix = unfold(stg, UnfoldingOptions(max_events=400))
        except UnfoldingError:
            continue
        if structurally_nested(prefix.net):
            yield index, prefix


@pytest.mark.parametrize("build", list(named_stgs()))
def test_prescreen_and_certificate_match_references(build):
    stg = build()
    context = SolverContext(unfold(stg))
    assert kernel_prescreen(context) is reference_prescreen(context)
    assert_certificate_matches(stg)


def test_generated_cases_match_references():
    decided = 0
    checked = 0
    for index, prefix in nested_generated_prefixes():
        context = SolverContext(prefix)
        verdict = kernel_prescreen(context)
        assert verdict is reference_prescreen(context), index
        assert_certificate_matches(prefix.stg)
        if verdict is False:
            # the window search the test skips would find nothing either
            assert next(WindowSearch(context).solutions(), None) is None
            decided += 1
        checked += 1
    # the sweep must exercise both answers, or it pins nothing
    assert checked > 100
    assert 0 < decided < checked


def flows_reference(changes, flow) -> bool:
    balance = balance_matrix_from_changes(
        changes, 1 + max((s for s, _ in changes if s is not None), default=-1)
    )
    return all(not (flow @ v).any() for v in _integer_kernel(balance))


class TestHandBuilt:
    def test_zero_flow_dummy_is_decided(self):
        changes = [(0, 1), (None, 0), (0, -1)]
        flow = np.array([[-1, 0, 1], [1, 0, -1]])
        flows = signal_flows(changes, flow)
        assert flows is not None and flows_reference(changes, flow)
        assert flows[0].tolist() == [-1, 1]

    def test_flow_carrying_dummy_is_inconclusive(self):
        changes = [(0, 1), (None, 0), (0, -1)]
        flow = np.array([[-1, 1, 1], [1, 0, -1]])
        assert signal_flows(changes, flow) is None
        assert not flows_reference(changes, flow)

    def test_disagreeing_edges_are_inconclusive(self):
        changes = [(0, 1), (0, -1), (0, 1)]
        flow = np.array([[1, -1, 0]])
        assert signal_flows(changes, flow) is None
        assert not flows_reference(changes, flow)

    def test_no_columns_is_decided(self):
        assert signal_flows([], np.zeros((3, 0), dtype=np.int64)) == {}

    def test_signal_without_transitions(self):
        """A declared but unused signal gets a zero certificate column,
        exactly the free variable Fraction elimination pins to 0."""
        stg = parse_stg(
            ".model idle\n.outputs z y\n.graph\nz+ p1\np1 z-\nz- p0\n"
            "p0 z+\n.marking { p0 }\n.end\n"
        )
        certificate = build_affine_certificate(stg)
        assert certificate is not None
        assert [row[stg.signal_index("y")] for row in certificate["matrix"]] == [
            "0",
            "0",
        ]
        assert_certificate_matches(stg)

    def test_dummy_stg_prescreen_matches_reference(self):
        stg = parse_stg(
            ".model d\n.outputs z\n.dummy t\n.graph\nz+ p\np t\nt q\n"
            "q z-\nz- r\nr z+\n.marking { r }\n.end\n"
        )
        context = SolverContext(unfold(stg))
        assert kernel_prescreen(context) is None
        assert reference_prescreen(context) is None
        assert build_affine_certificate(stg) is None


@pytest.mark.parametrize("check", [check_usc, check_csc])
def test_decided_check_runs_no_search(check):
    report = check(parse_stg((ROOT / "examples" / "toggle_bank.g").read_text()))
    assert report.holds
    assert report.witness is None and report.usc_only_candidates == 0
    assert report.search_stats == SearchStats()


class TestAgainstElimination:
    #: one column each: a dummy, a rising and a falling edge of signal 0,
    #: and a rising edge of signal 1
    CHANGES = [(None, 0), (0, 1), (0, -1), (1, 1)]

    def test_every_small_column_set_matches(self):
        """All three-column sets over one place with flows in {-1, 0, 1}."""
        decided = 0
        for changes in itertools.product(self.CHANGES, repeat=3):
            for row in itertools.product((-1, 0, 1), repeat=3):
                flow = np.array([row])
                flows = signal_flows(list(changes), flow)
                assert (flows is not None) == flows_reference(changes, flow)
                decided += flows is not None
        assert decided > 0

    def test_flow_built_from_the_code_is_recovered(self):
        """``flow = C @ B`` with zero dummy columns: the per-signal flows
        are the columns of ``C``."""
        rng = np.random.default_rng(3)
        for _ in range(50):
            changes = [
                self.CHANGES[k] for k in rng.integers(0, len(self.CHANGES), 8)
            ]
            code = rng.integers(-2, 3, size=(4, 2))
            flow = code @ balance_matrix_from_changes(changes, 2)
            flows = signal_flows(changes, flow)
            assert flows is not None
            for signal, vector in flows.items():
                assert np.array_equal(vector, code[:, signal])

    def test_perturbed_flow_is_rejected(self):
        """Changing one column of a signal with two edges, or of a dummy,
        breaks ``ker B ⊆ ker flow`` for elimination and closed form alike."""
        changes = [(0, 1), (0, -1), (None, 0), (1, 1)]
        flow = np.array([[1, 2], [-1, 0]]) @ balance_matrix_from_changes(
            changes, 2
        )
        assert signal_flows(changes, flow) is not None
        for column in (0, 1, 2):
            bent = flow.copy()
            bent[0, column] += 1
            assert signal_flows(changes, bent) is None
            assert not flows_reference(changes, bent)
        # signal 1 has a single edge: any flow there is a function of the code
        bent = flow.copy()
        bent[0, 3] += 1
        assert signal_flows(changes, bent) is not None


def test_one_column_per_transition_suffices():
    """Repeated instances of a transition copy its column, so the test over
    every free event decides as the test over distinct transitions does."""
    repeated = 0
    for build in TABLE1_BENCHMARKS.values():
        context = SolverContext(unfold(build()))
        events = context.prefix.events
        transitions = [events[e].transition for e in context.order]
        repeated += len(set(transitions)) < len(transitions)
        every = signal_flows(
            [context.stg.signal_change(t) for t in transitions],
            transition_flow_matrix(context.prefix.net, transitions),
        )
        assert (every is None) == (kernel_prescreen(context) is None)
    # some prefix must instantiate a transition twice, or this pins nothing
    assert repeated > 0


@pytest.mark.parametrize("check", [check_usc, check_csc])
def test_kernel_test_needs_the_nested_formulation(check):
    """Without Proposition 1 the kernel test proves nothing, so the search
    runs, and reaches the same verdict."""
    stg = parse_stg((ROOT / "examples" / "toggle_bank.g").read_text())
    probe = Tracer(enabled=True)
    previous = obs.set_tracer(probe)
    try:
        report = check(stg, nested=False)
    finally:
        obs.set_tracer(previous)
    assert report.holds
    assert report.search_stats.nodes > 0
    assert "search.prescreen" not in {span.name for span in probe.spans}


@pytest.mark.parametrize("check", [check_usc, check_csc])
def test_inconclusive_kernel_test_is_traced_and_searched(check):
    stg = parse_stg((ROOT / "examples" / "vme_bus.g").read_text())
    probe = Tracer(enabled=True)
    previous = obs.set_tracer(probe)
    try:
        report = check(stg, nested=True)
    finally:
        obs.set_tracer(previous)
    assert "search.prescreen" in {span.name for span in probe.spans}
    assert report.search_stats != SearchStats()


def test_certificate_columns_are_signal_flows():
    stg = parse_stg((ROOT / "examples" / "toggle_bank.g").read_text())
    certificate = build_affine_certificate(stg)
    assert certificate is not None
    changes = [stg.signal_change(t) for t in range(stg.net.num_transitions)]
    flows = signal_flows(changes, incidence_matrix(stg.net))
    for z, vector in flows.items():
        column = [int(row[z]) for row in certificate["matrix"]]
        assert column == vector.tolist()
