"""Golden equivalence: the facts engine must never change a verdict or witness.

The verifier reads the FactBase in one place: on nets that fail the
structural nesting test, a facts-proven dynamic conflict-freeness licenses
the refinement prescreen.  That prescreen only skips provably empty
searches, so the verdicts, witnesses and USC-only candidate counts must be
byte-identical to the plain run on every model, starting from a cold
analysis memo.  The two slowest CF instances are left to the benchmark
harness; everything else from Table 1 is pinned here.
"""

import pytest

from repro.analysis import analyze, clear_memo
from repro.core.verifier import check_csc, check_usc
from repro.models import TABLE1_BENCHMARKS

FAST_MODELS = [
    name
    for name in TABLE1_BENCHMARKS
    if name not in ("CF-SYM-D-CSC", "CF-ASYM-B-CSC")
]


def setup_function(_):
    clear_memo()


def _fingerprint(result):
    witness = result.witness
    return (
        result.holds,
        result.usc_only_candidates,
        None
        if witness is None
        else (
            witness.kind,
            witness.code_a,
            witness.code_b,
            tuple(witness.trace_a),
            tuple(witness.trace_b),
        ),
    )


@pytest.mark.parametrize("name", FAST_MODELS)
def test_usc_verdicts_identical(name):
    stg = TABLE1_BENCHMARKS[name]()
    plain = check_usc(stg)
    licensed = check_usc(stg, use_refinement=True)
    assert _fingerprint(licensed) == _fingerprint(plain)


@pytest.mark.parametrize("name", FAST_MODELS)
def test_csc_verdicts_identical(name):
    stg = TABLE1_BENCHMARKS[name]()
    plain = check_csc(stg)
    licensed = check_csc(stg, use_refinement=True)
    assert _fingerprint(licensed) == _fingerprint(plain)


@pytest.mark.parametrize("name", ["RING", "LAZYRING", "DUP-MOD-A"])
def test_all_facts_verify(name):
    stg = TABLE1_BENCHMARKS[name]()
    assert analyze(stg).verify_all(stg) == []
