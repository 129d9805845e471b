"""Golden-file sweep of ``refine_prescreen`` over every Table-1 model.

Pins, per model, whether the conflict system is refuted, the per-place
immovability classification, the LP solve and dominance counts, and every
certificate bound exactly as serialised.  Any change to the relaxation,
the solver backends or the certification step that alters an outcome must
update ``golden_outcomes.json`` deliberately:

    PYTHONPATH=src python tests/refine/test_golden_outcomes.py
"""

import json
from pathlib import Path

import pytest

from repro.core.context import SolverContext
from repro.models import TABLE1_BENCHMARKS
from repro.refine import refine_prescreen
from repro.unfolding.unfolder import unfold

pytest.importorskip("scipy")

GOLDEN_PATH = Path(__file__).with_name("golden_outcomes.json")


def outcome_snapshot(stg):
    outcome = refine_prescreen(SolverContext(unfold(stg)))
    certificate = outcome.certificate
    return {
        "refuted": outcome.refuted,
        "fixed_places": list(outcome.fixed_places),
        "lp_calls": outcome.lp_calls,
        "dominated": outcome.dominated,
        "bounds": None
        if certificate is None
        else [bound.to_dict() for bound in certificate.bounds],
    }


def load_golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def test_golden_covers_every_model():
    assert sorted(load_golden()) == sorted(TABLE1_BENCHMARKS)


@pytest.mark.parametrize("name", sorted(TABLE1_BENCHMARKS))
def test_model_matches_golden(name):
    expected = load_golden()[name]
    assert outcome_snapshot(TABLE1_BENCHMARKS[name]()) == expected


def test_golden_has_the_interesting_rows():
    """Sanity-check the golden file itself, not just conformance to it."""
    golden = load_golden()
    refuted = {name for name, snap in golden.items() if snap["refuted"]}
    # the counterflow family is refuted outright, the conflicting models not
    assert {"CF-SYM-A-CSC", "CF-SYM-B-CSC"} <= refuted
    assert "RING" not in refuted
    for name, snap in golden.items():
        assert (snap["bounds"] is not None) == snap["refuted"], name


if __name__ == "__main__":
    golden = {
        name: outcome_snapshot(factory())
        for name, factory in sorted(TABLE1_BENCHMARKS.items())
    }
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
