"""The equivalence gate in the unit suite.

The fast tier (``benchmarks/GOLDEN_fast.json``) is recomputed here, so
any drift in a simulator observable the fast experiments, the corpus or
the golden traces expose, or any fast experiment breaking its paper
claim, fails the default test command.  The full tier
(``benchmarks/GOLDEN.json``, all experiments and claims, minutes) stays
a manual gate: ``make equivalence-check`` (see docs/performance.md).
The other tests are the guards — tier validation, the golden-file
schema check and the claim check itself — that protect against silently
comparing incompatible digests or forgiving a broken claim.
"""

import json
from pathlib import Path

import pytest

from repro.bench.equivalence import (
    EQUIV_SCHEMA,
    FAST_EXPERIMENTS,
    PAPER_CLAIMS,
    TRACE_TARGETS,
    check_claims,
    check_golden,
    compute_digest,
)

ROOT = Path(__file__).resolve().parents[2]
FAST_GOLDEN = ROOT / "benchmarks" / "GOLDEN_fast.json"


def test_fast_tier_matches_golden():
    assert check_golden(FAST_GOLDEN) == []


def test_unknown_tier_rejected():
    with pytest.raises(ValueError, match="unknown tier"):
        compute_digest("bogus")


def test_wrong_schema_reported_not_compared(tmp_path):
    golden = tmp_path / "GOLDEN.json"
    golden.write_text(json.dumps({"schema": "repro-equivalence/v0", "sections": {}}))
    problems = check_golden(golden)
    assert len(problems) == 1
    assert EQUIV_SCHEMA in problems[0]


def test_violated_paper_claim_is_reported():
    fig4 = {"metrics": {"stride": 12, "profile_consistency": 1.0}}
    assert check_claims({"fig4": fig4}) == []
    fig4["metrics"]["stride"] = 11
    assert check_claims({"fig4": fig4}) == [
        f"fig4: paper claim failed: {PAPER_CLAIMS['fig4'][0]}"
    ]


def test_fast_tier_experiments_are_registered():
    from repro.experiments.runner import EXPERIMENTS

    for name in (*FAST_EXPERIMENTS, *PAPER_CLAIMS):
        assert name in EXPERIMENTS


def test_trace_smoke_pins_the_golden_trace_targets():
    (line,) = [
        line
        for line in (ROOT / "Makefile").read_text().splitlines()
        if line.startswith("TRACE_TARGETS")
    ]
    assert tuple(line.partition("=")[2].split()) == TRACE_TARGETS
