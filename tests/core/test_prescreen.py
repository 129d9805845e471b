"""Tests for the kernel prescreen and the LP relaxation of repro.refine."""

import pytest

from repro.core import check_usc
from repro.core.context import SolverContext
from repro.core.prescreen import kernel_prescreen
from repro.core.window import WindowSearch
from repro.models import TABLE1_BENCHMARKS, vme_bus
from repro.models._build import seq
from repro.refine import refine_prescreen
from repro.stg.stategraph import build_state_graph
from repro.stg.stg import STG, SignalEdge
from repro.unfolding import unfold


def toggle_stg():
    """a+ and a- act on the same two places in opposite directions — the
    kernel test's conclusive showcase."""
    stg = STG("toggle", outputs=["a"])
    stg.add_place("P0", tokens=1)
    stg.add_place("P1")
    stg.add_transition("a+", SignalEdge("a", 1))
    stg.add_transition("a-", SignalEdge("a", -1))
    stg.add_arc("P0", "a+")
    stg.add_arc("a+", "P1")
    stg.add_arc("P1", "a-")
    stg.add_arc("a-", "P0")
    return stg


def handshake_stg():
    stg = STG("hs", inputs=["a"], outputs=["b"])
    seq(stg, "a+", "b+", "a-", "b-")
    seq(stg, "b-", "a+", marked=True)
    return stg


class TestKernel:
    def test_conclusive_on_toggle(self):
        ctx = SolverContext(unfold(toggle_stg()))
        assert kernel_prescreen(ctx) is False

    def test_inconclusive_on_handshake(self):
        ctx = SolverContext(unfold(handshake_stg()))
        assert kernel_prescreen(ctx) is None

    @pytest.mark.parametrize("name", ["RING", "CF-SYM-A-CSC", "LAZYRING"])
    def test_inconclusive_on_benchmarks(self, name):
        """Real controllers defeat the pure relaxation — the observation
        that motivates the paper's structural search."""
        ctx = SolverContext(unfold(TABLE1_BENCHMARKS[name]()))
        assert kernel_prescreen(ctx) is None


class TestLP:
    """The ``[0,1]``-box LP with integral rounding (:mod:`repro.refine`)."""

    def test_conclusive_on_toggle(self):
        pytest.importorskip("scipy")
        ctx = SolverContext(unfold(toggle_stg()))
        assert refine_prescreen(ctx).refuted

    def test_rounding_settles_the_handshake(self):
        """The box relaxation admits half-integral windows on a plain
        handshake, but every optimum stays below 1, so rounding refutes
        the system where the kernel test cannot."""
        pytest.importorskip("scipy")
        ctx = SolverContext(unfold(handshake_stg()))
        assert kernel_prescreen(ctx) is None
        assert refine_prescreen(ctx).refuted


class TestSoundness:
    @pytest.mark.parametrize(
        "builder",
        [toggle_stg, handshake_stg, vme_bus]
        + [TABLE1_BENCHMARKS[n] for n in ("RING", "CF-SYM-A-CSC")],
    )
    def test_false_implies_usc_holds(self, builder):
        """A conclusive prescreen must agree with the oracle."""
        stg = builder()
        ctx = SolverContext(unfold(stg))
        if kernel_prescreen(ctx) is False or refine_prescreen(ctx).refuted:
            assert build_state_graph(stg).has_usc()

    def test_check_usc_with_prescreens(self):
        stg = toggle_stg()
        ctx = SolverContext(unfold(stg))
        report = check_usc(stg)
        assert report.holds
        # the conclusive kernel test answers without any search nodes ...
        assert kernel_prescreen(ctx) is False
        assert report.search_stats.nodes == 0
        # ... where the window search it skips has to walk the tree
        search = WindowSearch(ctx)
        assert list(search.solutions()) == []
        assert search.stats.nodes > 0
