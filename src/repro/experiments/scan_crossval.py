"""scan-crossval — static scanner vs dynamic oracle agreement.

The registered, cached form of the scanner's soundness argument
(:mod:`repro.static.crossval`): the built-in regression corpus plus a
seeded batch of generated programs, every case replayed under every
mitigation through both the static scanner and the dynamic two-fill
oracle, summarized as the 2×2 agreement matrix per mitigation.

The experiment asserts nothing by itself — it *records*; the hard gates
live in ``tests/static/test_crossval.py`` and ``repro-scan crossval``
(exit 1 on violations).  But its cached artifact makes the agreement
matrix part of the repo's equivalence surface: any scanner change that
shifts a cell count breaks ``GOLDEN.json`` and must be justified.

Determinism: the on-disk corpus is deliberately excluded (an
experiment's result must be a function of its seed alone, and whatever
campaigns the developer ran locally must not leak into a cached
artifact); the built-in :data:`repro.fuzz.corpus.REGRESSION_ENTRIES`
are part of the source and therefore fair game.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult
from repro.mitigations import MITIGATIONS
from repro.static.crossval import AGREEMENT_CELLS, agreement_matrix, run_crossval

__all__ = ["run"]

#: Generated programs on top of the built-in regression corpus; each
#: contributes a fuzz-v1 and an oracle-v1 case per mitigation.
_BUDGET = 6


def run(seed: int = 902) -> ExperimentResult:
    report = run_crossval(
        corpus_dir=None,
        budget=_BUDGET,
        seed=seed,
        mitigations=MITIGATIONS,
    )
    result = ExperimentResult(
        experiment_id="scan-crossval",
        title="Static scanner vs dynamic two-fill oracle: agreement matrix",
        headers=[
            "mitigation", "cases", "both-positive", "static-only",
            "dynamic-only", "both-negative",
        ],
        paper_claim=(
            "a sound static over-approximation of the TABLE I predictors "
            "flags every program the dynamic oracle can observe leaking; "
            "disagreement only ever falls on the precision side"
        ),
    )
    for mitigation in MITIGATIONS:
        rows = [row for row in report.rows if row["mitigation"] == mitigation]
        matrix = agreement_matrix(rows)
        result.add_row(
            mitigation, len(rows),
            *(matrix[cell] for cell in AGREEMENT_CELLS),
        )
        for cell in AGREEMENT_CELLS:
            result.metrics[f"{mitigation}_{cell.replace('-', '_')}"] = matrix[cell]
    total = report.matrix()
    result.add_row(
        "total", len(report.rows),
        *(total[cell] for cell in AGREEMENT_CELLS),
    )
    result.metrics["cases"] = len(report.rows)
    result.metrics["soundness_violations"] = len(report.violations)
    result.metrics["sound"] = int(report.sound)
    result.add_note(
        f"case set: {report.described_sources()} — the 8 built-in "
        f"regression corpus entries plus {_BUDGET} seed-derived programs "
        "(fuzz-v1 + oracle-v1 each), every one scanned and "
        "oracle-executed under every mitigation"
    )
    result.add_note(
        "dynamic-only must be 0 (the soundness invariant); static-only "
        "is the expected precision gap of an over-approximate scanner — "
        "the predictor preconditions a static edge requires simply did "
        "not fire in this run's machines"
    )
    return result
