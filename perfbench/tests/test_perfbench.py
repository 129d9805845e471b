"""Self-tests of the benchmark: inputs, known answers, the p90 rule, the split.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import hashlib
import json
import os
import subprocess
import sys
from types import SimpleNamespace

import pytest

import inproc
import inputs
import run
from inputs import Check
from spans import Span, Tracer, self_times, total

from repro.exceptions import ReproError
from repro.stg.parser import parse_stg
from repro.stg.stategraph import build_state_graph

#: Fixed inputs whose explicit state graph is small enough to build here.
STATE_GRAPH_LIMIT = 5000


def _digest(checks):
    text = "\n".join(f"{c.source.name}/{c.prop}\n{c.source.text}" for c in checks)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("workload", ["proof-search", "conflict-hunt"])
def test_same_seed_gives_identical_inputs(workload):
    assert _digest(inputs.workload_checks(workload, 5)) == _digest(
        inputs.workload_checks(workload, 5)
    )


def test_another_seed_changes_only_the_generated_inputs():
    fixed = {name for name, _ in inputs.CONFLICT_HUNT}
    a = inputs.workload_checks("conflict-hunt", 1)
    b = inputs.workload_checks("conflict-hunt", 2)
    fixed_a = {(c.source.name, c.prop, c.source.text) for c in a if c.source.name in fixed}
    fixed_b = {(c.source.name, c.prop, c.source.text) for c in b if c.source.name in fixed}
    assert fixed_a == fixed_b
    generated_a = {c.source.text for c in a if c.source.name not in fixed}
    generated_b = {c.source.text for c in b if c.source.name not in fixed}
    assert generated_a and generated_b and generated_a != generated_b


def test_every_fixed_input_is_used_and_has_a_known_answer():
    table = inputs.known_answers()
    names = {name for name, _ in inputs.PROOF_SEARCH + inputs.CONFLICT_HUNT}
    files = {path.stem for path in inputs.INPUT_DIR.glob("*.g")}
    assert names == set(table) == files
    for name in table:
        assert set(table[name]) == {"usc", "csc"}
        assert parse_stg(inputs.fixed_source(name).text).name


@pytest.mark.parametrize("name", sorted(inputs.known_answers()))
def test_known_answer_matches_the_state_graph(name):
    stg = parse_stg(inputs.fixed_source(name).text)
    try:
        graph = build_state_graph(stg, max_states=STATE_GRAPH_LIMIT)
    except ReproError:
        pytest.skip("state graph too large to build here")
    expected = inputs.known_answers()[name]
    assert {"usc": graph.has_usc(), "csc": graph.has_csc()} == expected


def test_generated_references_come_from_the_state_graph():
    for source in inputs.generated_sources(4, 5):
        graph = build_state_graph(parse_stg(source.text))
        assert source.expected == {"usc": graph.has_usc(), "csc": graph.has_csc()}


def test_same_seed_gives_identical_inputs_across_processes():
    # conflict-hunt computes its generated cases in a child interpreter
    in_child = inputs.conflict_hunt_generated(6)
    here = inputs.generated_sources(
        6, inputs.CONFLICT_HUNT_GENERATED, conflicting=True,
        max_states=inputs.GENERATED_MAX_STATES,
    )
    assert in_child == here


def _raising_checker(prefix, workers):
    raise RuntimeError("stub checker failure")


def _lying_checker(prefix, workers):
    stats = SimpleNamespace(nodes=0, pruned_balance=0, pruned_structure=0)
    return SimpleNamespace(holds=False, search_stats=stats, usc_only_candidates=0)


@pytest.mark.parametrize("checker", [_raising_checker, _lying_checker])
def test_a_failed_or_wrong_check_fails_the_run(checker, monkeypatch, capsys):
    # RING holds CSC: a lying checker reports it violated, a raising one fails
    ring = [Check(inputs.fixed_source("RING"), "csc")] * run.MIN_SAMPLES
    monkeypatch.setattr(inputs, "workload_checks", lambda workload, seed: ring)
    monkeypatch.setattr(run, "setup_seconds", lambda workdir: [1.0])
    monkeypatch.setitem(inproc.CHECKERS, "csc", checker)
    code = run.main(
        ["--workload", "conflict-hunt", "--seed", "1", "--seconds", "0", "--trace", "0"]
    )
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1 and result["correct"] is False
    assert result["attempted"] == 2 * run.MIN_SAMPLES
    assert result["failed"] == (2 * run.MIN_SAMPLES if checker is _raising_checker else 0)


@pytest.mark.parametrize("count", [100, 101, 109, 110, 250, 1000])
def test_at_least_ten_samples_lie_beyond_p90(count):
    samples = [float(i) for i in range(count)]
    metrics = run.latency_metrics(samples, 1.0)
    assert sum(1 for s in samples if s > metrics["verdict_s.p90"]) >= 10


def test_too_few_samples_for_p90_is_refused():
    with pytest.raises(run.BenchError):
        run.latency_metrics([float(i) for i in range(99)], 1.0)


def _assert_rows_sum_to_total(tracer, names):
    rows, traced_total = run.split_rows(tracer, names)
    assert set(rows) == set(names) | {"other.self_s"}
    assert all(value >= 0 for value in rows.values())
    assert sum(rows.values()) == pytest.approx(traced_total, rel=1e-9, abs=1e-12)
    assert traced_total == pytest.approx(total(tracer.spans))


def test_inprocess_layer_rows_and_other_sum_to_the_traced_total():
    checks = [
        Check(inputs.fixed_source(name), prop)
        for name in ("RING", "LAZYRING", "vme-chain-2")
        for prop in inputs.PROPERTIES
    ]
    tracer = Tracer()
    outcomes = inproc.traced_pass(checks, tracer)
    assert not any(o.failed or o.wrong for o in outcomes)
    _assert_rows_sum_to_total(tracer, run.IN_PROCESS_ROWS)
    assert self_times(tracer.spans)["core"] > 0


def test_service_layer_rows_and_other_sum_to_the_traced_total():
    from service import _add_server_spans

    tracer = Tracer()
    start = 0.0
    for queue, exec_s, run_s in ((0.01, 0.2, 0.15), (0.0, 0.05, 0.0), (0.3, 0.1, 0.2)):
        client_s = queue + exec_s + 0.07  # plus HTTP and polling
        root = len(tracer.spans)
        tracer.spans.append(Span("check", start, start + client_s + 0.01, None, root))
        client = tracer.add("serve.client", start, start + client_s, root)
        job = {
            "submitted": 1000.0,
            "started": 1000.0 + queue,
            "finished": 1000.0 + queue + exec_s,
            "results": [{"source": "fresh", "elapsed": run_s}],
        }
        _add_server_spans(tracer, client, job)
        start += 1.0
    _assert_rows_sum_to_total(tracer, run.SERVICE_ROWS)
    rows, _ = run.split_rows(tracer, run.SERVICE_ROWS)
    assert rows["serve.queue_wait_s"] == pytest.approx(0.31)
    assert rows["serve.client_overhead_s"] == pytest.approx(0.21)
    assert rows["other.self_s"] == pytest.approx(0.03)
    # run time beyond the exec interval is clamped to it
    assert rows["engine.run_s"] == pytest.approx(0.15 + 0.0 + 0.1)
    assert rows["engine.overhead_s"] == pytest.approx(0.05 + 0.05 + 0.0)


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in run.HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    result = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "conflict-hunt",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert result.returncode != 0
    assert result.stdout == ""


def test_printed_metrics_match_benchmark_json():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in declared["workloads"]} == set(run.WORKLOADS)
