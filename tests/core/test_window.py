"""Tests for the single-vector window search (Proposition 1 + marking eq.)."""

import pytest

from repro.core.context import SolverContext
from repro.core.search import MODE_EQUAL, PairSearch
from repro.core.window import WindowSearch
from repro.exceptions import SolverLimitError
from repro.models import TABLE1_BENCHMARKS, vme_bus
from repro.models.scalable import muller_pipeline
from repro.unfolding import unfold


def context_of(stg):
    return SolverContext(unfold(stg))


class TestSoundness:
    @pytest.mark.parametrize("name", ["RING", "CF-SYM-A-CSC", "CF-SYM-B-CSC"])
    def test_windows_embed_into_valid_pairs(self, name):
        """Every window solution must decode into two configurations with
        equal codes and different markings."""
        from repro.core.closure import is_compatible

        ctx = context_of(TABLE1_BENCHMARKS[name]())
        search = WindowSearch(ctx)
        for closure_mask, window_mask in search.solutions():
            mask_b = closure_mask
            mask_a = closure_mask & ~window_mask
            assert window_mask, "window must be non-empty"
            for mask in (mask_a, mask_b):
                events = 0
                for e in ctx.positions_to_events(mask):
                    events |= 1 << e
                assert is_compatible(ctx.relations, events)
            assert ctx.code_change_of(mask_a) == ctx.code_change_of(mask_b)
            assert ctx.marking_of(mask_a) != ctx.marking_of(mask_b)


class TestCompleteness:
    @pytest.mark.parametrize(
        "name", ["RING", "CF-SYM-A-CSC", "DUP-4PH-A", "DUP-MOD-A"]
    )
    def test_window_existence_matches_pair_search(self, name):
        """On dynamically conflict-free STGs the window search finds a USC
        conflict iff the (complete) pair search does."""
        stg = TABLE1_BENCHMARKS[name]()
        # only run where the structural DCF condition holds
        net = stg.net
        if any(len(net.place_postset(p)) > 1 for p in range(net.num_places)):
            pytest.skip("not structurally conflict-free")
        ctx = context_of(stg)
        window_found = False
        for closure_mask, window_mask in WindowSearch(ctx).solutions():
            window_found = True
            break
        pair_found = False
        for mask_a, mask_b in PairSearch(
            ctx, mode=MODE_EQUAL, nested_only=True
        ).solutions():
            if ctx.marking_of(mask_a) != ctx.marking_of(mask_b):
                pair_found = True
                break
        assert window_found == pair_found

    def test_muller_pipeline_has_no_window(self):
        ctx = context_of(muller_pipeline(4))
        assert not list(WindowSearch(ctx).solutions())


class TestEfficiency:
    def test_window_search_visits_fewer_nodes(self):
        """The ablation claim: on conflict-free marked graphs the window
        search beats the pair search by orders of magnitude."""
        stg = TABLE1_BENCHMARKS["CF-SYM-B-CSC"]()
        ctx = context_of(stg)
        window = WindowSearch(ctx)
        list(window.solutions())
        pair = PairSearch(ctx, mode=MODE_EQUAL, nested_only=True)
        list(pair.solutions())
        assert window.stats.nodes * 2 < pair.stats.nodes

    def test_node_budget(self):
        ctx = context_of(TABLE1_BENCHMARKS["CF-SYM-B-CSC"]())
        with pytest.raises(SolverLimitError):
            list(WindowSearch(ctx, node_budget=10).solutions())


class TestMarkingDelta:
    def test_every_window_changes_the_marking(self, vme):
        """Full VME cycles are balanced windows that change no marking; the
        search must never yield them."""
        ctx = context_of(vme)
        solutions = list(WindowSearch(ctx).solutions())
        assert solutions
        for closure, window in solutions:
            assert ctx.marking_of(closure & ~window) != ctx.marking_of(closure)
