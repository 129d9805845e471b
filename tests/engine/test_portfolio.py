"""Tests for portfolio racing: arbitration, cancellation, determinism."""

import time

import pytest

from repro.engine import events as ev
from repro.engine.cache import ResultCache
from repro.engine.jobs import (
    VERDICT_ERROR,
    VERDICT_TIMEOUT,
    VerificationJob,
    register_engine,
)
from repro.engine.pool import WorkerPool, fork_available
from repro.engine.portfolio import run_jobs
from repro.models import TABLE1_BENCHMARKS, vme_bus
from tests.conftest import TABLE1_VERDICTS

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)


def _always_failing(job):
    raise RuntimeError("this engine never works")


def _sleeping(job):
    time.sleep(30.0)
    return True, None, {}


register_engine("test-failing", _always_failing)
register_engine("test-sleeping", _sleeping)


def race(jobs, max_workers=2, cache=None, events=None, **pool_kwargs):
    events = events or ev.EventLog()
    with WorkerPool(max_workers=max_workers, events=events, **pool_kwargs) as pool:
        return run_jobs(jobs, pool, cache=cache, events=events), events


class TestRacing:
    @pytest.mark.parametrize("name", ["RING", "LAZYRING"])
    def test_portfolio_agrees_with_pinned_verdicts(self, name):
        job = VerificationJob(
            stg=TABLE1_BENCHMARKS[name](),
            property="csc",
            engines=("ilp", "sat"),
        )
        (result,), events = race([job])
        assert result.sound
        assert result.holds == TABLE1_VERDICTS[name]["csc"]
        assert result.engine in ("ilp", "sat")
        assert events.stats.wins_by_engine.get(result.engine) == 1

    @needs_fork
    def test_losers_are_cancelled(self):
        job = VerificationJob(
            stg=vme_bus(), property="csc", engines=("ilp", "test-sleeping")
        )
        started = time.monotonic()
        (result,), events = race([job])
        assert result.sound and result.engine == "ilp"
        # the sleeper would take 30s; winning must not wait for it
        assert time.monotonic() - started < 10
        assert events.stats.cancelled >= 1

    def test_failed_engine_does_not_fail_the_portfolio(self):
        job = VerificationJob(
            stg=vme_bus(), property="csc", engines=("test-failing", "sg")
        )
        (result,), _ = race([job], max_workers=0)
        assert result.sound
        assert result.engine == "sg"
        assert result.holds is False

    def test_all_engines_failing_fails_the_job(self):
        job = VerificationJob(
            stg=vme_bus(), property="csc", engines=("test-failing",)
        )
        (result,), events = race([job], max_workers=0)
        assert result.verdict == VERDICT_ERROR
        assert "all engines failed" in result.error
        assert "never works" in result.error
        assert len(events.of_kind(ev.JOB_FAILED)) == 1

    @needs_fork
    def test_portfolio_wide_timeout(self):
        job = VerificationJob(
            stg=vme_bus(),
            property="csc",
            engines=("test-sleeping",),
            timeout=0.2,
        )
        (result,), events = race([job], max_workers=1)
        assert result.verdict == VERDICT_TIMEOUT
        assert events.stats.timeouts == 1

    def test_many_jobs_keep_their_order(self):
        names = ["RING", "LAZYRING", "DUP-MOD-A"]
        jobs = [
            VerificationJob(
                stg=TABLE1_BENCHMARKS[name](),
                property=prop,
                engines=("ilp",),
                name=name,
            )
            for name in names
            for prop in ("usc", "csc")
        ]
        results, _ = race(jobs, max_workers=2)
        for job, result in zip(jobs, results):
            assert result.job_id == job.job_id
            assert result.holds == TABLE1_VERDICTS[job.name][job.property]


class TestCacheIntegration:
    def test_cold_then_warm(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = VerificationJob(stg=vme_bus(), property="csc", engines=("ilp",))
        (cold,), events1 = race([job], max_workers=0, cache=cache)
        assert not cold.from_cache
        assert len(events1.of_kind(ev.CACHE_MISS)) == 1
        (warm,), events2 = race([job], max_workers=0, cache=cache)
        assert warm.from_cache
        assert warm.verdict == cold.verdict
        assert len(events2.of_kind(ev.CACHE_HIT)) == 1
        # a cached job never reaches the pool
        assert events2.of_kind(ev.TASK_STARTED) == []

    def test_unsound_outcomes_are_not_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = VerificationJob(
            stg=vme_bus(), property="csc", engines=("test-failing",)
        )
        (result,), _ = race([job], max_workers=0, cache=cache)
        assert not result.sound
        assert len(cache) == 0


class TestDeterminism:
    def test_same_job_same_result_modulo_timings(self):
        job = VerificationJob(
            stg=TABLE1_BENCHMARKS["DUP-MOD-A"](),
            property="csc",
            engines=("ilp",),
        )
        (first,), _ = race([job], max_workers=0)
        (second,), _ = race([job], max_workers=0)
        assert first.signature() == second.signature()
        assert first.elapsed > 0 and second.elapsed > 0


class TestAnalysisStage:
    """The FactBase warm-up runs only where the ilp engine will read it:
    refinement jobs on nets that fail the structural nesting test."""

    def _analysis_passes(self, name, use_refinement=True):
        job = VerificationJob(
            stg=TABLE1_BENCHMARKS[name](),
            property="usc",
            engines=("ilp",),
            use_refinement=use_refinement,
        )
        (result,), events = race([job], max_workers=0)
        assert result.holds == TABLE1_VERDICTS[name]["usc"]
        return events.of_kind(ev.ANALYSIS_PASS)

    def test_nested_refine_job_skips_the_analysis(self):
        assert self._analysis_passes("DUP-MOD-A") == []

    def test_non_nested_refine_job_warms_the_facts(self):
        passes = self._analysis_passes("DUP-4PH-MTR-A")
        assert len(passes) == 1
        assert passes[0].detail.endswith("facts")

    def test_plain_job_skips_the_analysis(self):
        assert self._analysis_passes("DUP-4PH-MTR-A", use_refinement=False) == []
