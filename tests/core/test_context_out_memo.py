"""``SolverContext.out_of`` evaluates ``Out(M)`` once per distinct marking."""

import repro.core.context as context_module
from repro.core import check_csc
from repro.models import token_ring


def test_token_ring_16_csc_evaluates_each_marking_once(monkeypatch):
    calls = []
    real = context_module.enabled_outputs

    def counting(stg, marking, weak=False):
        calls.append(marking)
        return real(stg, marking, weak=weak)

    monkeypatch.setattr(context_module, "enabled_outputs", counting)
    report = check_csc(token_ring(16))
    assert report.holds
    # 240 USC-only candidates compare 480 Out sets over 16 markings
    assert report.usc_only_candidates == 240
    assert len(calls) == len(set(calls)) == 16
