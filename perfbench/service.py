"""The service path: a ``repro-stg serve`` process driven by ``ServeClient``.

The in-process workloads send one pass through it as the cross-path service
probe.  The server runs in its own process with ``--workers 1``: the server
with its one pool worker plus the client threads fit the two cores the
benchmark is sized for, so the measured latency is the service's and not the
machine's over-subscription.  It runs with ``--no-lint``: the lint probe
already reports lint's cost, and a cold lint of the large workload nets would
dominate the traced run.
"""

from __future__ import annotations

import os
import selectors
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import inputs
from inputs import BenchError
from spans import Tracer

from repro.serve.client import Rejected, ServeClient

#: The longest a client waits for one verdict before the check counts failed.
WAIT_LIMIT = 60.0
START_LIMIT = 60.0


class Server:
    """One ``repro-stg serve --port 0 --no-lint`` process with a fresh cache."""

    def __init__(self, src: Path, workdir: Path, name: str):
        self.src = src
        self.cache_dir = workdir / f"{name}-cache"
        self.log_path = workdir / f"{name}.log"
        self.proc: Optional[subprocess.Popen] = None
        self.url = ""

    def start(self) -> float:
        """Launch and wait until ``/v1/healthz`` answers; returns the seconds."""
        env = dict(os.environ, PYTHONPATH=str(self.src))
        command = [
            sys.executable, "-m", "repro.cli", "serve", "--port", "0",
            "--workers", "1", "--cache-dir", str(self.cache_dir), "--no-lint",
        ]
        started = time.perf_counter()
        with open(self.log_path, "ab") as log:
            self.proc = subprocess.Popen(
                command, stdout=subprocess.PIPE, stderr=log, env=env
            )
        line = self._read_line(started + START_LIMIT)
        if not line.startswith("serving on "):
            raise BenchError(f"serve did not announce its address: {line!r}")
        self.url = line.split("serving on ", 1)[1].strip()
        client = ServeClient(self.url, timeout=5.0)
        while True:
            try:
                if client.healthz():
                    return time.perf_counter() - started
            except OSError:
                pass
            if time.perf_counter() - started > START_LIMIT:
                raise BenchError("serve never became healthy")
            time.sleep(0.005)

    def _read_line(self, deadline: float) -> str:
        assert self.proc is not None and self.proc.stdout is not None
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            if not selector.select(timeout=max(0.0, deadline - time.perf_counter())):
                raise BenchError("serve did not start in time")
        return self.proc.stdout.readline().decode("utf-8", "replace")

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self.proc = None

    def __enter__(self) -> "Server":
        try:
            self.start()
        except BaseException:
            self.stop()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


@dataclass
class Outcome(inputs.Outcome):
    rejected: bool = False


def _submit(client: ServeClient, check, tracer: Optional[Tracer]) -> Outcome:
    started = time.perf_counter()
    try:
        if tracer is None:
            job = client.check(
                source=check.source.text, properties=[check.prop],
                wait=True, wait_timeout=WAIT_LIMIT,
            )
        else:
            with tracer.span("check"):
                with tracer.span("serve.client") as client_span:
                    job = client.check(
                        source=check.source.text, properties=[check.prop],
                        wait=True, wait_timeout=WAIT_LIMIT,
                    )
                _add_server_spans(tracer, client_span, job)
    except Rejected as exc:
        return Outcome(check, time.perf_counter() - started, error=repr(exc), rejected=True)
    except Exception as exc:  # wait limit, transport error: a failed check
        return Outcome(check, time.perf_counter() - started, error=repr(exc))
    latency = time.perf_counter() - started
    results = job.get("results") or []
    if job.get("state") != "done" or len(results) != 1:
        return Outcome(check, latency, error=f"job {job.get('state')}: {job.get('error')}")
    result = results[0]
    if result.get("verdict") not in ("holds", "violated"):
        return Outcome(check, latency, error=f"verdict {result.get('verdict')}")
    return Outcome(check, latency, holds=bool(result["holds"]))


def _add_server_spans(tracer: Tracer, client_index: int, job: Dict) -> None:
    """Children of the client span from the job document's timestamps.

    The server stamps ``submitted``/``started``/``finished`` from its own wall
    clock, so only their differences are used; the server interval is placed
    at the end of the client call (the client learns of completion by
    polling, after the server finished).
    """
    client = tracer.spans[client_index]
    submitted, started, finished = (
        job.get("submitted"), job.get("started"), job.get("finished")
    )
    if None in (submitted, started, finished):
        return
    span = client.end - client.start
    server = min(max(finished - submitted, 0.0), span)
    queue = min(max(started - submitted, 0.0), server)
    exec_s = server - queue
    run = sum(
        r.get("elapsed") or 0.0 for r in job.get("results") or []
        if r.get("source") == "fresh"
    )
    run = min(max(run, 0.0), exec_s)
    begin = client.end - server
    tracer.add("serve.queue", begin, begin + queue, client_index)
    exec_index = tracer.add("engine.exec", begin + queue, client.end, client_index)
    tracer.add("engine.run", begin + queue, begin + queue + run, exec_index)


def closed_loop(
    url: str, checks: Sequence, clients: int, tracer: Optional[Tracer] = None
) -> List[Outcome]:
    """``clients`` threads, each sending its next check once the last returned.

    Every check is sent once, in order; outcomes come back in that order.
    """
    lock = threading.Lock()
    cursor = [0]
    slots: Dict[int, Outcome] = {}
    errors: List[BaseException] = []

    def worker() -> None:
        client = ServeClient(url, timeout=WAIT_LIMIT)
        try:
            while True:
                with lock:
                    index = cursor[0]
                    if index >= len(checks):
                        return
                    cursor[0] += 1
                outcome = _submit(client, checks[index], tracer)
                with lock:
                    slots[index] = outcome
        except BaseException as exc:  # surface in the caller, never lose it
            errors.append(exc)

    threads = [threading.Thread(target=worker, daemon=True) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return [slots[index] for index in sorted(slots)]


def server_counters(url: str) -> Dict[str, float]:
    """The cache and dedup blocks of ``/v1/metrics``."""
    document = ServeClient(url).metrics()
    cache, dedup = document.get("cache", {}), document.get("dedup", {})
    hits, misses = cache.get("hits", 0), cache.get("misses", 0)
    return {
        "engine.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "serve.dedup_hits": dedup.get("hits", 0),
    }
