"""In-process tests of :class:`VerificationService`: the tentpole's core.

Everything here exercises the service through its Python surface (submit /
wait / metrics / drain) with an inline pool (``workers=0``) so the engine
work runs deterministically in the dispatcher thread.  Backpressure and
drain tests use a registered ``sleepy`` engine gated on a
:class:`threading.Event`, which blocks the dispatcher until the test says
go — no sleeps, no flakes.
"""

import threading
import time

import pytest

from repro.engine.jobs import ENGINES, VerificationJob, execute_engine, register_engine
from repro.serve import protocol
from repro.serve.queue import QueueClosed
from repro.serve.server import Histogram, ServiceSaturated, VerificationService
from tests.conftest import TABLE1_VERDICTS


def make_service(**kwargs):
    kwargs.setdefault("workers", 0)
    kwargs.setdefault("lint", False)
    kwargs.setdefault("cache", None)
    return VerificationService(**kwargs)


@pytest.fixture
def service():
    svc = make_service()
    yield svc
    svc.close(timeout=10.0, cancel=True)


@pytest.fixture
def sleepy():
    """A registered engine that blocks until the returned gate is set."""
    gate = threading.Event()

    def engine(job):
        gate.wait(30.0)
        return True, None, {}

    register_engine("sleepy", engine)
    yield gate
    gate.set()
    ENGINES.pop("sleepy", None)


def submit_and_wait(service, payload, timeout=60.0):
    job = service.submit(payload)
    done = service.wait(job.id, timeout=timeout)
    assert done is not None and done.state in protocol.TERMINAL_STATES, (
        f"job {job.id} stuck in state {job.state}"
    )
    return done


def wait_until(predicate, timeout=10.0, what="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError(f"timed out waiting for {what}")


class TestGoldenEquivalence:
    """Acceptance: service answers == ``repro-stg check`` for every model."""

    def test_every_golden_model_matches_direct_engine_run(self):
        service = make_service(queue_limit=len(TABLE1_VERDICTS) + 1)
        try:
            jobs = {
                name: service.submit(
                    {
                        "schema": protocol.SCHEMA,
                        "model": name,
                        "properties": ["usc", "csc"],
                    }
                )
                for name in sorted(TABLE1_VERDICTS)
            }
            for name, job in jobs.items():
                done = service.wait(job.id, timeout=120.0)
                assert done.state == protocol.STATE_DONE, (name, done.error)
                by_prop = {r.property: r for r in done.results}
                assert set(by_prop) == {"usc", "csc"}
                for prop, expected_holds in TABLE1_VERDICTS[name].items():
                    served = by_prop[prop]
                    direct = execute_engine(
                        VerificationJob(
                            stg=job.request.stg, property=prop, name=name
                        ),
                        "ilp",
                    )
                    assert served.holds == expected_holds == direct.holds, (
                        name, prop
                    )
                    assert served.verdict == direct.verdict
                    # witnesses are deterministic for the ILP engine
                    assert served.witness == direct.witness
                # exit semantics match `repro-stg check MODEL usc csc`
                wire = [protocol.result_to_dict(r) for r in done.results]
                expected_exit = (
                    0 if all(TABLE1_VERDICTS[name].values()) else 1
                )
                assert protocol.exit_code_for(wire) == expected_exit
                assert done.to_dict()["exit_code"] == expected_exit
        finally:
            service.close(timeout=10.0, cancel=True)

    def test_source_and_json_submissions_agree(self, service, vme):
        from repro.stg.parser import write_stg

        via_source = submit_and_wait(
            service, {"source": write_stg(vme), "properties": ["csc"]}
        )
        via_json = submit_and_wait(
            service,
            {"stg": protocol.stg_to_json(vme), "properties": ["csc"]},
        )
        assert via_source.results[0].holds is False  # vme-bus violates CSC
        assert via_source.results[0].witness == via_json.results[0].witness
        assert via_source.request.stg_hash == via_json.request.stg_hash


class TestSubmitValidation:
    def test_bad_payload_raises_protocol_error(self, service):
        with pytest.raises(protocol.ProtocolError):
            service.submit({"model": "NO-SUCH-MODEL"})
        with pytest.raises(protocol.ProtocolError):
            service.submit("not an object")
        # nothing was admitted
        assert service.metrics()["queue"]["offered"] == 0

    def test_get_unknown_job(self, service):
        assert service.get("j999999-deadbeef") is None
        assert service.wait("j999999-deadbeef", timeout=0.05) is None


class TestBackpressure:
    def test_429_when_queue_full_and_healthz_stays_green(self, sleepy):
        service = make_service(queue_limit=1, batch_limit=1)
        try:
            blocker = service.submit(
                {"model": "RING", "engines": ["sleepy"], "node_budget": 1}
            )
            # dispatcher picks the blocker up and parks on the gate
            wait_until(
                lambda: service.get(blocker.id).state == protocol.STATE_RUNNING,
                what="blocker running",
            )
            queued = service.submit(
                {"model": "RING", "engines": ["sleepy"], "node_budget": 2}
            )
            assert queued.state == protocol.STATE_QUEUED
            # distinct node_budget => distinct dedup key => real third request
            with pytest.raises(ServiceSaturated) as excinfo:
                service.submit(
                    {"model": "RING", "engines": ["sleepy"], "node_budget": 3}
                )
            assert excinfo.value.retry_after >= 1
            # saturation is not sickness
            assert service.healthy
            assert service.ready
            assert service.metrics()["queue"]["rejected"] == 1
            sleepy.set()
            for job in (blocker, queued):
                done = service.wait(job.id, timeout=30.0)
                assert done.state == protocol.STATE_DONE
        finally:
            sleepy.set()
            service.close(timeout=10.0, cancel=True)

    def test_retry_after_reflects_observed_service_time(self, service):
        for _ in range(10):
            service.queue.note_service_time(3.0)
        assert service.queue.retry_after() == 3


class TestDedup:
    def test_identical_inflight_requests_collapse(self, sleepy):
        service = make_service(queue_limit=4, batch_limit=1)
        try:
            payload = {"model": "RING", "engines": ["sleepy"]}
            primary = service.submit(payload)
            wait_until(
                lambda: service.get(primary.id).state == protocol.STATE_RUNNING,
                what="primary running",
            )
            follower = service.submit(payload)
            assert follower.deduped_of == primary.id
            # the follower never consumed a queue slot
            assert service.metrics()["queue"]["offered"] == 1
            assert service.metrics()["dedup"]["hits"] == 1
            sleepy.set()
            done_primary = service.wait(primary.id, timeout=30.0)
            done_follower = service.wait(follower.id, timeout=30.0)
            assert done_primary.state == protocol.STATE_DONE
            assert done_follower.state == protocol.STATE_DONE
            assert done_follower.results == done_primary.results
        finally:
            sleepy.set()
            service.close(timeout=10.0, cancel=True)

    def test_follower_resolved_even_if_primary_completes_during_submit(
        self, sleepy
    ):
        """Regression: a primary publishing the instant dedup.acquire()
        returns must still resolve the follower — the follower has to be in
        the job table *before* it attaches to the primary."""
        service = make_service(queue_limit=4, batch_limit=1)
        try:
            payload = {"model": "RING", "engines": ["sleepy"]}
            primary = service.submit(payload)
            wait_until(
                lambda: service.get(primary.id).state == protocol.STATE_RUNNING,
                what="primary running",
            )
            real_acquire = service.dedup.acquire

            def racing_acquire(key, job_id):
                attached_to = real_acquire(key, job_id)
                if attached_to is not None:
                    # worst-case interleaving: the primary publishes (and
                    # runs dedup.complete) before submit() gets any further
                    sleepy.set()
                    done = service.wait(primary.id, timeout=30.0)
                    assert done.state == protocol.STATE_DONE
                return attached_to

            service.dedup.acquire = racing_acquire
            follower = service.submit(payload)
            assert follower.deduped_of == primary.id
            done_follower = service.wait(follower.id, timeout=5.0)
            assert done_follower.state == protocol.STATE_DONE
            assert done_follower.results == service.get(primary.id).results
        finally:
            sleepy.set()
            service.close(timeout=10.0, cancel=True)

    def test_sequential_identical_requests_do_not_dedup(self, service):
        payload = {"model": "RING"}
        first = submit_and_wait(service, payload)
        second = submit_and_wait(service, payload)
        assert first.deduped_of is None
        assert second.deduped_of is None
        assert service.metrics()["dedup"]["hits"] == 0


class TestCacheIntegration:
    def test_repeat_requests_hit_the_result_cache(self, tmp_path):
        service = make_service(cache_dir=str(tmp_path / "cache"))
        try:
            first = submit_and_wait(service, {"model": "RING"})
            assert first.results[0].from_cache is False
            second = submit_and_wait(service, {"model": "RING"})
            assert second.results[0].from_cache is True
            assert second.results[0].holds == first.results[0].holds
            cache = service.metrics()["cache"]
            assert cache["enabled"] is True
            assert cache["hits"] == 1
            assert cache["hit_ratio"] == 0.5
        finally:
            service.close(timeout=10.0, cancel=True)


class TestDrain:
    def test_drain_finishes_accepted_work_and_stops_admission(self, sleepy):
        service = make_service(queue_limit=4, batch_limit=1)
        try:
            blocker = service.submit({"model": "RING", "engines": ["sleepy"]})
            wait_until(
                lambda: service.get(blocker.id).state == protocol.STATE_RUNNING,
                what="blocker running",
            )
            queued = service.submit({"model": "LAZYRING", "engines": ["sleepy"]})
            service.begin_drain()
            assert service.healthy
            assert not service.ready
            with pytest.raises(QueueClosed):
                service.submit({"model": "DUP-MOD-A"})
            sleepy.set()
            assert service.drain(timeout=30.0) is True
            # every accepted job reached a terminal, *successful* state
            for job in (blocker, queued):
                assert service.get(job.id).state == protocol.STATE_DONE
        finally:
            sleepy.set()
            service.close(timeout=10.0, cancel=True)

    def test_drain_of_idle_service_is_immediate(self, service):
        submit_and_wait(service, {"model": "RING"})
        assert service.drain(timeout=10.0) is True
        assert service.healthy  # liveness survives a drain; readiness does not
        assert not service.ready

    def test_close_cancels_stuck_work(self, sleepy):
        service = make_service(queue_limit=4, batch_limit=1)
        blocker = service.submit({"model": "RING", "engines": ["sleepy"]})
        wait_until(
            lambda: service.get(blocker.id).state == protocol.STATE_RUNNING,
            what="blocker running",
        )
        queued = service.submit({"model": "LAZYRING", "engines": ["sleepy"]})
        # never release the gate: drain cannot finish, close must cancel
        service.close(timeout=0.2, cancel=True)
        assert service.get(queued.id).state == protocol.STATE_CANCELLED
        assert service.get(queued.id).to_dict()["exit_code"] == 2
        sleepy.set()  # unblock the parked dispatcher thread


class TestDispatcherCrash:
    def test_crash_turns_health_red_and_fails_queued_jobs(self, sleepy):
        service = make_service(queue_limit=4, batch_limit=1)
        try:
            blocker = service.submit({"model": "RING", "engines": ["sleepy"]})
            wait_until(
                lambda: service.get(blocker.id).state == protocol.STATE_RUNNING,
                what="blocker running",
            )
            queued = service.submit({"model": "LAZYRING", "engines": ["sleepy"]})

            def boom(timeout=None):
                raise RuntimeError("boom")

            service.queue.take = boom  # next dispatcher iteration dies
            sleepy.set()
            done_blocker = service.wait(blocker.id, timeout=30.0)
            assert done_blocker.state == protocol.STATE_DONE
            wait_until(lambda: not service.healthy, what="health to go red")
            assert not service.ready
            # the job nobody will ever run is failed, not queued forever
            done_queued = service.wait(queued.id, timeout=5.0)
            assert done_queued.state == protocol.STATE_FAILED
            assert "crashed" in done_queued.error
            # and new work is refused instead of silently accepted
            with pytest.raises(QueueClosed):
                service.submit({"model": "DUP-MOD-A"})
        finally:
            sleepy.set()
            service.close(timeout=5.0, cancel=True)


class TestTerminalRetention:
    def test_terminal_jobs_evicted_beyond_cap(self):
        service = make_service(terminal_cap=2, terminal_ttl=None)
        try:
            ids = [
                submit_and_wait(service, {"model": model}).id
                for model in ("RING", "LAZYRING", "DUP-MOD-A")
            ]
            assert service.get(ids[0]) is None  # oldest evicted
            assert service.get(ids[1]) is not None
            assert service.get(ids[2]) is not None
            metrics = service.metrics()
            assert metrics["jobs_evicted"] == 1
            assert metrics["jobs_retained"] == 2
        finally:
            service.close(timeout=10.0, cancel=True)

    def test_terminal_jobs_expire_after_ttl(self):
        service = make_service(terminal_ttl=0.05)
        try:
            done = submit_and_wait(service, {"model": "RING"})
            time.sleep(0.1)
            # any later admission sweeps out expired terminal documents
            submit_and_wait(service, {"model": "LAZYRING"})
            assert service.get(done.id) is None
            assert service.metrics()["jobs_evicted"] >= 1
        finally:
            service.close(timeout=10.0, cancel=True)

    def test_in_flight_jobs_are_never_evicted(self, sleepy):
        service = make_service(
            queue_limit=4, batch_limit=1, terminal_cap=0, terminal_ttl=None
        )
        try:
            blocker = service.submit({"model": "RING", "engines": ["sleepy"]})
            wait_until(
                lambda: service.get(blocker.id).state == protocol.STATE_RUNNING,
                what="blocker running",
            )
            assert service.get(blocker.id) is not None
            sleepy.set()
            # with cap 0 the document goes away as soon as it is terminal
            wait_until(
                lambda: service.get(blocker.id) is None, what="eviction"
            )
            assert service.metrics()["jobs_evicted"] == 1
        finally:
            sleepy.set()
            service.close(timeout=10.0, cancel=True)


class _SteppedWallClock:
    """Stand-in for the ``time`` module of :mod:`repro.serve.server` whose
    wall clock runs ``offset`` seconds off; every other clock is real."""

    def __init__(self, offset=0.0, step=0.0):
        self.offset = offset
        self.step = step  # added to the offset after every wall-clock read

    def time(self):
        now = time.time() + self.offset
        self.offset += self.step
        return now

    def __getattr__(self, name):
        return getattr(time, name)


class TestWallClockSteps:
    """Durations and retention run on the monotonic clock; only the job
    documents carry wall-clock timestamps."""

    def test_backward_steps_record_no_negative_duration(self, monkeypatch):
        from repro.serve import server

        monkeypatch.setattr(server, "time", _SteppedWallClock(step=-3600.0))
        service = make_service()
        try:
            done = submit_and_wait(service, {"model": "RING"})
            assert done.finished < done.started  # the wall clock went back
            latency = service.metrics()["latency"]
            for name in ("total", "queue_wait", "exec"):
                assert latency[name]["count"] == 1
                assert 0.0 <= latency[name]["sum_s"] < 60.0, name
            assert service.metrics()["uptime_s"] >= 0.0
        finally:
            service.close(timeout=10.0, cancel=True)

    def test_backward_step_does_not_evict_a_job_early(self, monkeypatch):
        from repro.serve import server

        clock = _SteppedWallClock(offset=-3600.0)
        monkeypatch.setattr(server, "time", clock)
        service = make_service(terminal_ttl=900.0)
        try:
            # the job finishes while the wall clock runs an hour behind ...
            done = submit_and_wait(service, {"model": "RING"})
            # ... then the clock is stepped back to the right time, and the
            # next admission sweeps the retention window
            clock.offset = 0.0
            submit_and_wait(service, {"model": "LAZYRING"})
            assert service.get(done.id) is not None
            assert service.metrics()["jobs_evicted"] == 0
        finally:
            service.close(timeout=10.0, cancel=True)


class TestMetrics:
    def test_document_shape_and_counters(self, service):
        submit_and_wait(service, {"model": "RING", "properties": ["usc", "csc"]})
        document = service.metrics()
        assert document["schema"] == protocol.SCHEMA
        assert document["jobs"] == {protocol.STATE_DONE: 1}
        assert document["queue"]["accepted"] == 1
        assert document["engine"]["jobs"] == 2
        assert document["engine"]["completed"] == 2
        assert document["cache"]["enabled"] is False
        assert document["latency"]["total"]["count"] == 1
        assert document["latency"]["queue_wait"]["count"] == 1
        assert document["latency"]["exec"]["count"] == 1
        assert document["latency"]["total"]["p95_s"] is not None
        assert document["uptime_s"] > 0


class TestHistogram:
    def test_quantiles_interpolate_within_buckets(self):
        histogram = Histogram()
        for _ in range(100):
            histogram.observe(0.3)  # lands in the (0.25, 0.5] bucket
        p50 = histogram.quantile(0.50)
        assert 0.25 < p50 <= 0.5
        assert histogram.quantile(0.95) <= 0.5

    def test_empty_histogram_has_no_quantiles(self):
        histogram = Histogram()
        assert histogram.quantile(0.5) is None
        document = histogram.to_dict()
        assert document["count"] == 0
        assert document["p50_s"] is None

    def test_overflow_bucket(self):
        histogram = Histogram()
        histogram.observe(120.0)
        document = histogram.to_dict()
        assert document["buckets"]["+Inf"] == 1
        assert document["buckets"]["60"] == 0

    def test_to_dict_buckets_are_cumulative(self):
        histogram = Histogram()
        for value in (0.002, 0.002, 0.04, 7.0):
            histogram.observe(value)
        buckets = histogram.to_dict()["buckets"]
        assert buckets["0.0025"] == 2
        assert buckets["0.05"] == 3
        assert buckets["10"] == 4
        assert buckets["+Inf"] == 4
