"""In-process checks: the ``repro-stg check`` path, and the layer probes.

A check is ``parse_stg`` -> ``unfold`` -> ``check_usc``/``check_csc`` with
default settings and ``workers=0``, run single-threaded in this process.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import inputs
from inputs import distinct_sources
from spans import Tracer

from repro.core import SolverContext, check_csc, check_usc, kernel_prescreen
from repro.stg.parser import parse_stg
from repro.unfolding import unfold

CHECKERS = {"usc": check_usc, "csc": check_csc}


@dataclass
class Outcome(inputs.Outcome):
    events: int = 0
    nodes: int = 0
    pruned: int = 0
    usc_only: int = 0


def run_check(check, tracer: Optional[Tracer] = None) -> Outcome:
    """One check; spans around each layer call when ``tracer`` is given."""
    checker = CHECKERS[check.prop]
    started = time.perf_counter()
    try:
        if tracer is None:
            prefix = unfold(parse_stg(check.source.text))
            report = checker(prefix, workers=0)
        else:
            with tracer.span("check"):
                with tracer.span("stg.parser"):
                    stg = parse_stg(check.source.text)
                with tracer.span("unfolding"):
                    prefix = unfold(stg)
                with tracer.span("core"):
                    report = checker(prefix, workers=0)
    except Exception as exc:  # a raised check is a failed check, not a crash
        return Outcome(check, time.perf_counter() - started, error=repr(exc))
    latency = time.perf_counter() - started
    stats = report.search_stats
    return Outcome(
        check,
        latency,
        holds=bool(report.holds),
        events=len(prefix.events),
        nodes=stats.nodes,
        pruned=stats.pruned_balance + stats.pruned_structure,
        usc_only=report.usc_only_candidates,
    )


@dataclass
class TimedRun:
    outcomes: List[Outcome] = field(default_factory=list)
    #: Per pass: summed check latencies, and wall time.
    pass_totals: List[float] = field(default_factory=list)
    pass_walls: List[float] = field(default_factory=list)


def timed_passes(checks: Sequence, seconds: float, min_samples: int) -> TimedRun:
    """Whole passes until ``seconds`` elapsed and ``min_samples`` checks ran."""
    run = TimedRun()
    started = time.perf_counter()
    while (
        time.perf_counter() - started < seconds or len(run.outcomes) < min_samples
    ):
        pass_started = time.perf_counter()
        batch = [run_check(check) for check in checks]
        run.pass_walls.append(time.perf_counter() - pass_started)
        run.outcomes.extend(batch)
        run.pass_totals.append(sum(o.latency for o in batch))
    return run


def traced_pass(checks: Sequence, tracer: Tracer) -> List[Outcome]:
    return [run_check(check, tracer) for check in checks]


def layer_counts(outcomes: Sequence[Outcome], core_s: float) -> Dict[str, float]:
    nodes = sum(o.nodes for o in outcomes)
    return {
        "unfolding.events": sum(o.events for o in outcomes),
        "core.search_nodes": nodes,
        "core.nodes_per_s": nodes / core_s if core_s > 0 else 0.0,
        "core.pruned_share": sum(o.pruned for o in outcomes) / nodes if nodes else 0.0,
        "core.usc_only_rejects": sum(o.usc_only for o in outcomes),
    }


def probes(checks: Sequence, core_by_source: Dict[str, float]) -> Dict[str, float]:
    """Kernel, analysis, lint and refine probes on each distinct source.

    Each source starts from a cold analysis memo.  ``analyze`` is probed
    first; lint and refine then find its facts in the memo, so their times
    are their own and no time is counted twice (a cold lint costs about
    ``lint.probe_s + analysis.probe_s``).  ``lint.decided_share`` is the
    share of distinct checks whose property a certifying lint rule decides.
    ``core_by_source`` is each source's core time in the traced pass, the
    base of ``refine.probe_to_search``.
    """
    from repro.analysis import analyze, clear_memo
    from repro.lint import run_lint
    from repro.refine import refine_prescreen

    sources = distinct_sources(checks)
    props = {source.name: set() for source in sources}
    for check in checks:
        props[check.source.name].add(check.prop)
    kernel_s = analysis_s = lint_s = refine_s = 0.0
    lp_calls = refuted = decided = 0
    ratios = []
    for source in sources:
        stg = parse_stg(source.text)
        prefix = unfold(stg)

        context = SolverContext(prefix)
        started = time.perf_counter()
        kernel_prescreen(context)
        kernel_s += time.perf_counter() - started

        clear_memo()
        started = time.perf_counter()
        analyze(stg)
        analysis_s += time.perf_counter() - started

        started = time.perf_counter()
        report = run_lint(stg)
        lint_s += time.perf_counter() - started
        decided += len(props[source.name] & set(report.decisions()))

        context = SolverContext(prefix)
        started = time.perf_counter()
        outcome = refine_prescreen(context)
        elapsed = time.perf_counter() - started
        refine_s += elapsed
        lp_calls += outcome.lp_calls
        refuted += bool(outcome.refuted)
        if core_by_source.get(source.name):
            ratios.append(elapsed / core_by_source[source.name])
    clear_memo()
    return {
        "core.kernel_probe_s": kernel_s,
        "analysis.probe_s": analysis_s,
        "lint.probe_s": lint_s,
        "lint.decided_share": decided / sum(len(p) for p in props.values()),
        "refine.probe_s": refine_s,
        "refine.lp_calls": lp_calls,
        "refine.refuted_share": refuted / len(sources),
        "refine.probe_to_search": statistics.median(ratios) if ratios else 0.0,
    }
