"""Workload inputs: fixed .g texts with known answers plus seeded generated cases.

The fixed inputs live as ``.g`` files under ``inputs/`` so that a change to
the program's model builders or writer cannot change what is measured.  The
generated inputs come from ``repro.fuzz.generate.generate_case(seed, i)``;
a case is kept only if it is well-formedness-preserving, passes the fuzz
oracle's guards (bounded, safe, consistent) and round-trips through the
``.g`` dialect.  Its reference verdict is read off the explicit state graph
the guards build, so the system under test never supplies its own answer.
A run computes the references in a child interpreter, so that their memory
never counts toward the peak RSS of the process that runs the checks.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
INPUT_DIR = HERE / "inputs"
SRC = HERE.parent / "src"
PROPERTIES = ("usc", "csc")
BOTH = PROPERTIES
CSC = ("csc",)
USC = ("usc",)
#: The longest the child computing the generated references may take.
GENERATE_LIMIT = 150.0

#: proof-search: inputs whose pair search runs long.  counterflow n=5 is
#: left out: its text is byte-identical to CF-SYM-D-CSC.
PROOF_SEARCH: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("CF-SYM-C-CSC", BOTH),
    ("CF-SYM-D-CSC", BOTH),
    ("CF-ASYM-A-CSC", BOTH),
    ("CF-ASYM-B-CSC", BOTH),
    ("muller-pipeline-10", BOTH),
    ("parallel-forks-5", CSC),
    ("token-ring-16", CSC),
    ("vme-chain-6", CSC),
)

#: conflict-hunt: the conflict-carrying half of Table 1 and the scalable
#: conflict families, plus ``CONFLICT_HUNT_GENERATED`` generated cases that
#: still carry a USC conflict (a conflict-free variant makes the search run
#: to exhaustion, which is proof-search's regime, not an edit loop's).
CONFLICT_HUNT: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    tuple(
        (name, BOTH)
        for name in (
            "LAZYRING",
            "RING",
            "DUP-4PH-A",
            "DUP-4PH-B",
            "DUP-4PH-MTR-A",
            "DUP-4PH-MTR-B",
            "DUP-MOD-A",
            "DUP-MOD-B",
            "DUP-MOD-C",
        )
    )
    + tuple((f"token-ring-{n}", USC) for n in (4, 6, 8, 12, 16))
    + tuple((f"vme-chain-{n}", USC) for n in (2, 3, 4, 5, 6))
)
CONFLICT_HUNT_GENERATED = 100
#: A designer re-checks their own models after every edit, and each variant
#: only once: a pass checks each fixed input this many times.  It also keeps
#: p90 among the fixed inputs' slow checks instead of on the edge of a
#: cluster of generated ones whose size varies with the seed.
CONFLICT_HUNT_FIXED_REPEATS = 3
#: Generated cases are small seeded variants: their state graphs stay this
#: small, which keeps a seed from adding a few slow outliers to a pass.
GENERATED_MAX_STATES = 128

class BenchError(Exception):
    """The benchmark cannot run here (no program, or a broken run)."""


@dataclass(frozen=True)
class Source:
    """One STG as the user hands it over: ``.g`` text plus its known answers."""

    name: str
    text: str
    expected: Dict[str, bool]


@dataclass(frozen=True)
class Check:
    """One property of one source — the unit a user waits for."""

    source: Source
    prop: str

    @property
    def expected(self) -> bool:
        return self.source.expected[self.prop]

    @property
    def label(self) -> str:
        return f"{self.source.name}/{self.prop}"


@dataclass
class Outcome:
    """What one check returned, or why it failed."""

    check: Check
    latency: float
    holds: Optional[bool] = None
    error: Optional[str] = None

    @property
    def failed(self) -> bool:
        return self.error is not None

    @property
    def wrong(self) -> bool:
        return self.error is None and self.holds != self.check.expected


def known_answers() -> Dict[str, Dict[str, bool]]:
    table = json.loads((INPUT_DIR / "known_answers.json").read_text())
    return {name: verdicts for name, verdicts in table.items() if not name.startswith("_")}


def fixed_source(name: str) -> Source:
    text = (INPUT_DIR / f"{name}.g").read_text()
    return Source(name, text, dict(known_answers()[name]))


def generated_sources(
    seed: int, count: int, conflicting: bool = False, max_states: int = 4096
) -> List[Source]:
    """The first ``count`` kept cases of ``generate_case(seed, 0..)``.

    ``conflicting`` keeps only cases whose state graph has a USC conflict;
    ``max_states`` caps the state graph's size.
    """
    from repro.fuzz.generate import generate_case
    from repro.fuzz.oracle import CaseOutcome, OracleConfig, _guards
    from repro.stg.parser import round_trippable, write_stg

    config = OracleConfig()
    kept: List[Source] = []
    index = 0
    while len(kept) < count:
        case = generate_case(seed, index)
        index += 1
        if not case.preserving or not round_trippable(case.stg):
            continue
        graph = _guards(case, config, CaseOutcome(case_id=case.case_id))
        if (
            graph is None
            or graph.num_states > max_states
            or (conflicting and graph.has_usc())
        ):
            continue
        expected = {"usc": graph.has_usc(), "csc": graph.has_csc()}
        kept.append(Source(case.case_id, write_stg(case.stg), expected))
    return kept


GENERATE_CHILD = """
import json, sys
sys.path[:0] = sys.argv[1:3]
import inputs
sources = inputs.generated_sources(
    int(sys.argv[3]), int(sys.argv[4]), conflicting=True, max_states=int(sys.argv[5])
)
json.dump([[s.name, s.text, s.expected] for s in sources], sys.stdout)
"""


def conflict_hunt_generated(seed: int) -> List[Source]:
    """conflict-hunt's generated cases, computed in a fresh interpreter."""
    command = [
        sys.executable, "-c", GENERATE_CHILD, str(HERE), str(SRC), str(seed),
        str(CONFLICT_HUNT_GENERATED), str(GENERATED_MAX_STATES),
    ]
    try:
        done = subprocess.run(
            command, capture_output=True, text=True, timeout=GENERATE_LIMIT
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"generating the inputs took over {GENERATE_LIMIT} s") from exc
    if done.returncode != 0:
        raise BenchError(f"generating the inputs failed: {done.stderr.strip()[-2000:]}")
    return [Source(name, text, expected) for name, text, expected in json.loads(done.stdout)]


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench/{workload}/{seed}")


def workload_checks(workload: str, seed: int) -> List[Check]:
    """One pass of an in-process workload, in its seeded order."""
    if workload == "proof-search":
        plan = [(fixed_source(name), props) for name, props in PROOF_SEARCH]
    elif workload == "conflict-hunt":
        plan = [(fixed_source(name), props) for name, props in CONFLICT_HUNT]
        plan *= CONFLICT_HUNT_FIXED_REPEATS
        plan += [(source, BOTH) for source in conflict_hunt_generated(seed)]
    else:
        raise ValueError(f"{workload!r} is not an in-process workload")
    checks = [Check(source, prop) for source, props in plan for prop in props]
    _rng(workload, seed).shuffle(checks)
    return checks


def distinct_sources(checks: Sequence[Check]) -> List[Source]:
    """Sources in first-seen order."""
    seen: Dict[str, Source] = {}
    for check in checks:
        seen.setdefault(check.source.name, check.source)
    return list(seen.values())
