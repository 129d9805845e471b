"""The window search's live-suffix balance bound prunes only dead subtrees.

A short reference enumerator walks every legal window — conflict-free with
the window, no convexity gap — in the search's branching order (include
first) with *no* balance pruning at all, and keeps the balanced,
marking-changing leaves.  The bounded search must yield exactly the same
``(closure, window)`` sequence.
"""

from __future__ import annotations

import sys
from typing import List, Tuple

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core import check_csc, check_usc
from repro.core.context import SolverContext
from repro.core.verifier import structurally_nested
from repro.core.window import WindowSearch
from repro.exceptions import UnfoldingError
from repro.fuzz.generate import generate_case
from repro.models import TABLE1_BENCHMARKS, token_ring, vme_bus
from repro.models.scalable import muller_pipeline
from repro.unfolding import unfold
from repro.unfolding.unfolder import UnfoldingOptions


def reference_windows(ctx: SolverContext) -> List[Tuple[int, int]]:
    """Every balanced, marking-changing legal window, in search order."""
    flows = ctx.window_flows
    found: List[Tuple[int, int]] = []

    def leaf(window: int) -> None:
        if window == 0 or any(ctx.code_change_of(window)):
            return
        delta = {}
        closure = window
        rest = window
        while rest:
            low = rest & -rest
            position = low.bit_length() - 1
            closure |= ctx.pred_pos[position]
            for place, d in flows[position]:
                delta[place] = delta.get(place, 0) + d
            rest ^= low
        if any(delta.values()):
            found.append((closure, window))

    def walk(index: int, window: int, succ: int) -> None:
        if index == ctx.num_vars:
            leaf(window)
            return
        if (
            ctx.conf_pos[index] & window == 0
            and ctx.pred_pos[index] & succ & ~window == 0
        ):
            walk(index + 1, window | 1 << index, succ | ctx.succ_pos[index])
        walk(index + 1, window, succ)

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, ctx.num_vars + 200))
    try:
        walk(0, 0, 0)
    finally:
        sys.setrecursionlimit(limit)
    return found


REFERENCE_MODELS = {
    name: TABLE1_BENCHMARKS[name]
    for name in sorted(TABLE1_BENCHMARKS)
    if name in ("RING", "LAZYRING", "CF-SYM-A-CSC") or name.startswith("DUP-")
}
REFERENCE_MODELS.update(
    {f"token-ring-{n}": (lambda n=n: token_ring(n)) for n in range(4, 9)}
)
REFERENCE_MODELS["vme_bus"] = vme_bus


@pytest.mark.parametrize("name", sorted(REFERENCE_MODELS))
def test_matches_unpruned_reference(name):
    ctx = SolverContext(unfold(REFERENCE_MODELS[name]()))
    assert list(WindowSearch(ctx).solutions()) == reference_windows(ctx)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(index=st.integers(min_value=0, max_value=10_000))
def test_matches_reference_on_generated_cases(index):
    stg = generate_case(11, index).stg
    try:
        prefix = unfold(stg, UnfoldingOptions(max_events=120))
    except UnfoldingError:
        assume(False)
    assume(structurally_nested(prefix.net))
    ctx = SolverContext(prefix)
    assert list(WindowSearch(ctx).solutions()) == reference_windows(ctx)


def test_bound_counts_pruned_subtrees():
    """The conflict-free pipeline reaches its one leaf (the empty window)
    through balance pruning alone."""
    ctx = SolverContext(unfold(muller_pipeline(10)))
    search = WindowSearch(ctx)
    assert list(search.solutions()) == []
    assert search.stats.leaves == 1
    assert search.stats.pruned_balance > 0
    assert search.stats.nodes < 5_000


@pytest.mark.parametrize("check", [check_usc, check_csc])
def test_muller_pipeline_12_within_small_budget(check):
    """The static suffix bound needed 6.49 M nodes here."""
    report = check(muller_pipeline(12), node_budget=50_000)
    assert report.holds
    assert report.search_stats.nodes <= 50_000
