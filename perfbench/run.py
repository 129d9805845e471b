"""The repository benchmark: the proof-search and conflict-hunt workloads.

Run from the repository root::

    python3 perfbench/run.py --workload conflict-hunt --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric, ``--trace 1`` every per-layer
metric; the last line of standard output is one JSON object.  Any verdict
that differs from the input's known answer, and any check that fails (it
raised, or gave no verdict), makes the run exit with code 1.  See
perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from inputs import BenchError

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("proof-search", "conflict-hunt")
#: At least 10 samples must lie beyond the nearest-rank p90.
MIN_SAMPLES = 100
SETUP_REPEATS = 5
#: Untraced passes a traced in-process run takes as its overhead baseline.
TRACE_BASELINE_PASSES = 3
#: Client threads of the service probe: the closed loop never outnumbers the cores.
SERVICE_CLIENTS = 2

END_TO_END = {
    "verdict_s.p50": "s",
    "verdict_s.p90": "s",
    "checks_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "stg.parser.self_s": "s",
    "unfolding.self_s": "s",
    "unfolding.events": "count",
    "core.self_s": "s",
    "core.search_nodes": "count",
    "core.nodes_per_s": "1/s",
    "core.pruned_share": "ratio",
    "core.usc_only_rejects": "count",
    "core.kernel_probe_s": "s",
    "refine.probe_s": "s",
    "refine.lp_calls": "count",
    "refine.refuted_share": "ratio",
    "refine.probe_to_search": "ratio",
    "lint.probe_s": "s",
    "lint.decided_share": "ratio",
    "analysis.probe_s": "s",
    "engine.cache.hit_ratio": "ratio",
    "engine.exec_s": "s",
    "engine.run_s": "s",
    "engine.overhead_s": "s",
    "serve.queue_wait_s": "s",
    "serve.client_overhead_s": "s",
    "serve.dedup_hits": "count",
    "serve.rejected": "count",
    "other.self_s": "s",
    "trace.total_s": "s",
    "trace.overhead_s": "s",
}
#: Span name -> the per-layer row holding its self time.
SELF_ROWS = {
    "stg.parser": "stg.parser.self_s",
    "unfolding": "unfolding.self_s",
    "core": "core.self_s",
    "serve.client": "serve.client_overhead_s",
    "serve.queue": "serve.queue_wait_s",
    "engine.exec": "engine.overhead_s",
    "engine.run": "engine.run_s",
    "check": "other.self_s",
}
IN_PROCESS_ROWS = ("stg.parser.self_s", "unfolding.self_s", "core.self_s")
SERVICE_ROWS = (
    "serve.client_overhead_s",
    "serve.queue_wait_s",
    "engine.overhead_s",
    "engine.run_s",
)

SETUP_CHILD = """
import sys
from repro.stg.parser import parse_stg
from repro.unfolding import unfold
from repro.core import check_csc
report = check_csc(unfold(parse_stg(open(sys.argv[1]).read())), workers=0)
print("holds" if report.holds else "violated", flush=True)
"""


def load_program() -> None:
    """Import the program from this checkout's ``src``, and nothing else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise BenchError(f"repro imported from {repro.__file__}, not {SRC}")


# -- statistics -------------------------------------------------------------


def p90_rank(count: int) -> int:
    """1-based nearest rank of the 90th percentile: ceil(0.9 * count)."""
    return (9 * count + 9) // 10


def latency_metrics(latencies: Sequence[float], rate: float) -> Dict[str, float]:
    ordered = sorted(latencies)
    rank = p90_rank(len(ordered))
    if len(ordered) - rank < 10:
        raise BenchError(
            f"{len(ordered)} checks leave fewer than 10 samples beyond p90"
        )
    return {
        "verdict_s.p50": statistics.median(ordered),
        "verdict_s.p90": ordered[rank - 1],
        "checks_per_s": rate,
    }


# -- set-up -----------------------------------------------------------------


def inprocess_setup_once(workdir: Path) -> float:
    """Fresh interpreter -> imports -> RING/csc verdict, in seconds."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", SETUP_CHILD, str(HERE / "inputs" / "RING.g")],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=env,
        cwd=str(workdir),
    )
    try:
        line = proc.stdout.readline().decode().strip()
        elapsed = time.perf_counter() - started
    finally:
        proc.stdout.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if line != "holds":
        raise BenchError(f"set-up check of RING/csc printed {line!r}, not 'holds'")
    return elapsed


def setup_seconds(workdir: Path) -> List[float]:
    return [inprocess_setup_once(workdir) for _ in range(SETUP_REPEATS)]


# -- workloads --------------------------------------------------------------


class Tally:
    """Checks attempted, failed and wrong across every path a run takes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong: List[str] = []
        self.errors: List[str] = []

    def add(self, outcomes) -> None:
        for outcome in outcomes:
            self.attempted += 1
            if outcome.failed:
                self.failed += 1
                self.errors.append(f"{outcome.check.label}: {outcome.error}")
            elif outcome.wrong:
                self.wrong.append(
                    f"{outcome.check.label}: got holds={outcome.holds}, "
                    f"expected {outcome.check.expected}"
                )


def split_rows(tracer, names: Sequence[str]) -> Tuple[Dict[str, float], float]:
    """Self-time rows for ``names`` plus ``other``, and the traced total."""
    from spans import self_times, total

    by_span = self_times(tracer.spans)
    rows = {row: 0.0 for row in names}
    rows["other.self_s"] = 0.0
    for span_name, seconds in by_span.items():
        rows[SELF_ROWS[span_name]] += seconds
    return rows, total(tracer.spans)


def service_probe(checks, workdir: Path, tally: Tally) -> Dict[str, float]:
    """The engine and serve rows: an in-process workload's pass sent once
    through a fresh ``repro-stg serve`` process."""
    from service import Server, closed_loop, server_counters
    from spans import Tracer, durations

    tracer = Tracer()
    clients = min(SERVICE_CLIENTS, os.cpu_count() or 1)
    with Server(SRC, workdir, "probe") as server:
        outcomes = closed_loop(server.url, checks, clients, tracer=tracer)
        rows = server_counters(server.url)
    tally.add(outcomes)
    phases, _ = split_rows(tracer, SERVICE_ROWS)
    phases.pop("other.self_s")
    rows.update(phases)
    rows["engine.exec_s"] = sum(durations(tracer.spans, "engine.exec").values())
    rows["serve.rejected"] = sum(1 for o in outcomes if o.rejected)
    return rows


def core_by_source(checks, tracer) -> Dict[str, float]:
    """Core time of one check of each property, per source.

    ``checks[i]`` was traced as check id ``i + 1``; a check that a pass
    repeats is averaged over its repeats.
    """
    from spans import durations

    times: Dict[Tuple[str, str], List[float]] = {}
    for check_id, seconds in durations(tracer.spans, "core").items():
        check = checks[check_id - 1]
        times.setdefault((check.source.name, check.prop), []).append(seconds)
    per_source: Dict[str, float] = {}
    for (name, _), values in times.items():
        per_source[name] = per_source.get(name, 0.0) + sum(values) / len(values)
    return per_source


def run_inprocess(args, workdir: Path, tally: Tally) -> Dict:
    import inproc
    from inputs import distinct_sources, workload_checks
    from spans import Tracer

    checks = workload_checks(args.workload, args.seed)
    tally.add(inproc.run_check(check) for check in checks)  # warm-up pass
    detail = {"checks_per_pass": len(checks), "inputs": len(distinct_sources(checks))}
    if not args.trace:
        run = inproc.timed_passes(checks, args.seconds, MIN_SAMPLES)
        tally.add(run.outcomes)
        # the median pass's rate: robust to a host slowdown during a few passes
        rate = len(checks) / statistics.median(run.pass_walls)
        metrics = latency_metrics([o.latency for o in run.outcomes], rate)
        # the references were computed in a child: this peak is the check path's
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        )
        detail.update(samples=len(run.outcomes), passes=len(run.pass_totals))
        return {"values": metrics, "detail": detail}

    baseline = inproc.timed_passes(checks, 0.0, TRACE_BASELINE_PASSES * len(checks))
    tally.add(baseline.outcomes)
    tracer = Tracer()
    outcomes = inproc.traced_pass(checks, tracer)
    tally.add(outcomes)
    layers, traced_total = split_rows(tracer, IN_PROCESS_ROWS)
    layers.update(inproc.layer_counts(outcomes, layers["core.self_s"]))
    layers["trace.total_s"] = traced_total
    layers["trace.overhead_s"] = traced_total - statistics.median(baseline.pass_totals)
    layers.update(inproc.probes(checks, core_by_source(checks, tracer)))
    layers.update(service_probe(checks, workdir, tally))
    detail["phase_rows"] = list(IN_PROCESS_ROWS) + ["other.self_s"]
    return {"values": layers, "detail": detail}


# -- report -----------------------------------------------------------------


def git_sha() -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment() -> Dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
    }


def print_summary(report: Dict) -> None:
    env = report["environment"]
    print(
        f"perfbench {report['workload']} seed={report['seed']} "
        f"cpu_count={env['cpu_count']} python={env['python']} "
        f"git_sha={env['git_sha'] or 'unknown'}"
    )
    print("  " + " ".join(f"{k}={v}" for k, v in report["detail"].items()))
    print(
        f"  attempted={report['attempted']} failed={report['failed']} "
        f"failed_share={report['failed_share']:.4f} wrong={len(report['wrong'])}"
    )
    for line in report["wrong"] + report["errors"][:10]:
        print(f"  ! {line}")
    for name, entry in report["metrics"].items():
        print(f"  {name:26s} {entry['value']:.6g} {entry['unit']}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full report as JSON here")
    args = parser.parse_args(argv)

    try:
        load_program()
    except (BenchError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    try:
        # set-up is an end-to-end metric; a traced run reports layers only
        setups = [] if args.trace else setup_seconds(workdir)
        result = run_inprocess(args, workdir, tally)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            workdir.parent.rmdir()
    values = result["values"]
    if setups:
        values["setup_s"] = statistics.median(setups)
        result["detail"]["setup_runs"] = len(setups)
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in units.items()
    }
    # a failed check gives no verdict to compare, so it fails the run too
    correct = not tally.wrong and not tally.failed
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "environment": environment(),
        "detail": result["detail"],
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_share": tally.failed / max(tally.attempted, 1),
        "wrong": tally.wrong,
        "errors": tally.errors,
        "metrics": metrics,
    }
    print_summary(report)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
