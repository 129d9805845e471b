"""Schema validation and compare mode of benchmarks/harness.py."""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

_HARNESS_PATH = Path(__file__).resolve().parents[2] / "benchmarks" / "harness.py"
_spec = importlib.util.spec_from_file_location("bench_harness", _HARNESS_PATH)
harness = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(harness)


@pytest.fixture(scope="module")
def report():
    """One real (tiny) harness run, shared across the module's tests."""
    return harness.run_suite(
        quick=True, warmup=0, repeat=2, families=["token-ring"]
    )


class TestRunSuite:
    def test_report_is_schema_valid(self, report):
        harness.validate_report(report)

    def test_case_contents(self, report):
        (record,) = report["results"]
        assert record["id"] == "token-ring/n=4/usc"
        assert record["property"] == "usc"
        assert record["holds"] is False  # the token ring has USC conflicts
        assert record["repeats"] == 2
        assert 0.0 <= record["min_s"] <= record["median_s"] <= record["max_s"]
        # the traced probe run attached phases and counters
        assert record["phases"]["total"] > 0.0
        assert record["counters"]["unfold.events"] > 0
        assert record["counters"]["search.nodes"] > 0

    def test_env_capture(self, report):
        env = report["env"]
        assert env["python"].count(".") == 2
        assert env["cpu_count"] >= 1

    def test_probe_does_not_leak_into_default_tracer(self, report):
        from repro import obs

        assert not obs.enabled()
        assert obs.get_tracer().spans == []

    def test_json_serialisable_and_cli_writes(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "BENCH.json"
        code = harness.main(
            ["--quick", "--warmup", "0", "--repeat", "1",
             "--families", "token-ring", "--out", str(out)]
        )
        assert code == 0
        harness.validate_report(json.loads(out.read_text()))


class TestValidateReport:
    def test_rejects_non_object(self):
        with pytest.raises(ValueError, match="JSON object"):
            harness.validate_report([])

    def test_rejects_wrong_schema(self, report):
        bad = copy.deepcopy(report)
        bad["schema"] = "repro-bench/99"
        with pytest.raises(ValueError, match="unknown bench schema"):
            harness.validate_report(bad)

    def test_rejects_missing_top_level_key(self, report):
        bad = copy.deepcopy(report)
        del bad["env"]
        with pytest.raises(ValueError, match="missing key 'env'"):
            harness.validate_report(bad)

    def test_rejects_empty_results(self, report):
        bad = copy.deepcopy(report)
        bad["results"] = []
        with pytest.raises(ValueError, match="non-empty results"):
            harness.validate_report(bad)

    def test_rejects_missing_result_field(self, report):
        bad = copy.deepcopy(report)
        del bad["results"][0]["median_s"]
        with pytest.raises(ValueError, match="missing field 'median_s'"):
            harness.validate_report(bad)

    def test_rejects_wrong_field_type(self, report):
        bad = copy.deepcopy(report)
        bad["results"][0]["median_s"] = "fast"
        with pytest.raises(ValueError, match="wrong type"):
            harness.validate_report(bad)

    def test_rejects_inconsistent_timings(self, report):
        bad = copy.deepcopy(report)
        bad["results"][0]["min_s"] = bad["results"][0]["max_s"] + 1.0
        with pytest.raises(ValueError, match="timings inconsistent"):
            harness.validate_report(bad)

    def test_rejects_duplicate_ids(self, report):
        bad = copy.deepcopy(report)
        bad["results"].append(copy.deepcopy(bad["results"][0]))
        with pytest.raises(ValueError, match="duplicate bench result id"):
            harness.validate_report(bad)


class TestCompare:
    def test_identical_reports_clean(self, report):
        assert harness.compare_reports(report, report) == []

    def test_regression_flagged(self, report):
        slow = copy.deepcopy(report)
        slow["results"][0]["median_s"] *= 1.5
        (flag,) = harness.compare_reports(report, slow)
        assert flag["id"] == report["results"][0]["id"]
        assert flag["ratio"] == pytest.approx(1.5)

    def test_threshold_respected(self, report):
        slow = copy.deepcopy(report)
        slow["results"][0]["median_s"] *= 1.15
        assert harness.compare_reports(report, slow) == []
        assert harness.compare_reports(report, slow, threshold=0.10)

    def test_improvement_not_flagged(self, report):
        fast = copy.deepcopy(report)
        fast["results"][0]["median_s"] *= 0.5
        assert harness.compare_reports(report, fast) == []

    def test_new_cases_ignored(self, report):
        grown = copy.deepcopy(report)
        extra = copy.deepcopy(grown["results"][0])
        extra["id"] = "new-family/n=1/csc"
        grown["results"].append(extra)
        assert harness.compare_reports(report, grown) == []

    def test_committed_report_with_workers_rows_still_reads(self, report):
        # BENCH_current.json predates the removal of the workers axis: its
        # records carry "workers" and its /w=2 rows have no partner to gate
        committed = json.loads(
            (_HARNESS_PATH.parents[1] / "BENCH_current.json").read_text()
        )
        harness.validate_report(committed)
        assert any(r.get("workers") == 2 for r in committed["results"])
        flagged = harness.compare_reports(committed, report)
        assert not any("/w=" in entry["id"] for entry in flagged)

    def test_compare_cli_exit_codes(self, report, tmp_path, capsys):
        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        old.write_text(json.dumps(report))
        slow = copy.deepcopy(report)
        slow["results"][0]["median_s"] *= 2.0
        new.write_text(json.dumps(slow))
        assert harness.main(["compare", str(old), str(old)]) == 0
        assert harness.main(["compare", str(old), str(new)]) == 1
        out = capsys.readouterr().out
        assert "regression" in out


class TestRefineAxis:
    @pytest.fixture(scope="class")
    def refine_report(self):
        pytest.importorskip("scipy")
        return harness.run_suite(
            quick=True, warmup=0, repeat=1, families=["token-ring"],
            refine=(1,),
        )

    def test_refine_counters_recorded(self, refine_report):
        (record,) = refine_report["results"]
        assert record["id"] == "token-ring/n=4/usc/r=1"
        counters = record["refine_counters"]
        assert counters["lp_calls"] > 0
        assert counters["cert_cache_hits"] == 0  # cold run: nothing stored
        # the warm probe replays every certified objective from the store
        assert counters["warm_cert_cache_hits"] > 0
        assert counters["warm_lp_calls"] < counters["lp_calls"]

    def test_refine_counters_validate(self, refine_report):
        harness.validate_report(refine_report)
        bad = copy.deepcopy(refine_report)
        bad["results"][0]["refine_counters"] = "not-a-dict"
        with pytest.raises(ValueError, match="refine_counters"):
            harness.validate_report(bad)


class TestComparePhases:
    def _with_refine_phase(self, report, seconds):
        doctored = copy.deepcopy(report)
        doctored["results"][0]["phases"]["refine"] = seconds
        return doctored

    def test_refine_phase_regression_flagged(self, report):
        old = self._with_refine_phase(report, 0.100)
        new = self._with_refine_phase(report, 0.150)
        (flag,) = harness.compare_reports(old, new)
        assert flag["metric"] == "phase:refine"
        assert flag["ratio"] == pytest.approx(1.5)

    def test_refine_phase_improvement_clean(self, report):
        old = self._with_refine_phase(report, 0.100)
        new = self._with_refine_phase(report, 0.050)
        assert harness.compare_reports(old, new) == []

    def test_phase_only_ignores_median(self, report):
        old = self._with_refine_phase(report, 0.100)
        new = self._with_refine_phase(report, 0.110)
        new["results"][0]["median_s"] = old["results"][0]["median_s"] * 5
        flagged = harness.compare_reports(old, new, include_median=False)
        assert flagged == []  # 10% phase drift + huge median: both ignored
        assert harness.compare_reports(old, new)  # median checked by default

    def test_phase_only_cli_flag(self, report, tmp_path, capsys):
        old = self._with_refine_phase(report, 0.100)
        new = self._with_refine_phase(report, 0.200)
        new["results"][0]["median_s"] = old["results"][0]["median_s"]
        old_path = tmp_path / "old.json"
        new_path = tmp_path / "new.json"
        old_path.write_text(json.dumps(old))
        new_path.write_text(json.dumps(new))
        code = harness.main(
            ["compare", str(old_path), str(new_path), "--phase-only"]
        )
        assert code == 1
        assert "phase:refine" in capsys.readouterr().out
