"""Static-vs-dynamic cross-validation: the scanner's soundness proof.

The scanner's whole value rests on one claim: *a program it proves
gadget-free cannot leak under the dynamic two-fill oracle*.  This module
turns that claim into a tested, reproducible property.  It replays a
case set — the persistent fuzz corpus (built-in regression entries plus
any on-disk campaign additions), the shrunk reproducers from findings
files, and optionally a deterministic batch of freshly generated
programs — through **both** detectors per mitigation:

* static: :func:`repro.static.gadgets.scan_program` (no execution);
* dynamic: :func:`repro.fuzz.oracle.leak_check_instructions` (two full
  pipeline runs with different secret fills).

Each case lands in one cell of the 2×2 agreement matrix:

===================  ==========================================
``both-positive``    scanner flagged it, oracle observed a leak
``static-only``      flagged but no dynamic leak — the *precision
                     gap*, expected for an over-approximate scanner
                     (the predictor preconditions simply did not
                     fire this run)
``dynamic-only``     **soundness violation** — a dynamic leak the
                     scanner missed; always a bug, fails the run
``both-negative``    clean by both
===================  ==========================================

A task is one program and its mitigation list: the worker builds the
program once and returns one row per mitigation.  Each row keeps its
``case`` number, which counts (program, mitigation) rows in task order.

Determinism: tasks are a pure function of the inputs, workers are pure
functions of their task dict, and rows are assembled in case order —
so the matrix and the report JSON are byte-identical across reruns and
``--jobs`` settings, the property ``make scan-smoke`` and the
``scan-crossval`` experiment both gate on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.cpu.isa import instructions_from_reprs
from repro.errors import ArtifactError
from repro.fuzz import corpus as corpus_mod
from repro.fuzz.corpus import Corpus, program_set
from repro.fuzz.findings import read_findings
from repro.fuzz.gen import build_program
from repro.fuzz.oracle import leak_check_instructions
from repro.mitigations import MITIGATIONS, parse_mitigations
from repro.runtime.supervisor import TaskFailure, run_supervised
from repro.static.gadgets import scan_program
from repro.telemetry.metrics import registry

__all__ = [
    "AGREEMENT_CELLS",
    "CROSSVAL_SCHEMA",
    "CrossValReport",
    "agreement_matrix",
    "build_cases",
    "run_case",
    "run_crossval",
]

CROSSVAL_SCHEMA = 1

#: The four agreement-matrix cells, in presentation order.
AGREEMENT_CELLS = ("both-positive", "static-only", "dynamic-only", "both-negative")


def build_cases(
    *,
    corpus_dir: str | Path | None = None,
    findings: Sequence[str | Path] = (),
    budget: int = 0,
    seed: int = 0,
    mitigations: Sequence[str] = MITIGATIONS,
    model_name: str | None = None,
) -> list[dict]:
    """The cross-validation task list, one dict per program with the
    mitigations to run it under.

    Corpus entries come first (built-in regressions, then on-disk cases,
    via :func:`repro.fuzz.corpus.replay_order`), then every shrunk
    reproducer found in ``findings`` files (replayed under the finding's
    own mitigation only), then ``budget`` freshly derived generated
    programs (:func:`repro.fuzz.corpus.program_set`, the fuzz campaign's
    programs).  A task's ``case`` is the number of its first row.
    """
    mitigations = parse_mitigations(mitigations)
    common = {"cpu_model": model_name or ""}
    cases: list[dict] = []
    rows = 0

    def add(source: str, generator: str, case_seed: int, blocks: int,
            label: str, run_under: list[str], instructions: list[str] | None) -> None:
        nonlocal rows
        cases.append(
            {
                "case": rows,
                "source": source,
                "generator": generator,
                "seed": case_seed,
                "blocks": blocks,
                "label": label,
                "mitigations": run_under,
                "instructions": instructions,
                **common,
            }
        )
        rows += len(run_under)

    corp = Corpus(corpus_dir) if corpus_dir is not None else None
    replay = corpus_mod.replay_order(corp)
    programs = program_set(replay, budget, seed)
    for source, entry in programs[:len(replay)]:
        add(source, entry.generator, entry.seed, entry.blocks, entry.label,
            mitigations, None)
    for path in findings:
        for finding in read_findings(path):
            if finding.shrunk is None:
                continue
            add(
                "shrunk", finding.generator, finding.seed, finding.blocks,
                f"shrunk:{finding.label or finding.task}", [finding.mitigation],
                list(finding.shrunk["instructions"]),
            )
    for source, entry in programs[len(replay):]:
        add(source, entry.generator, entry.seed, entry.blocks, entry.label,
            mitigations, None)
    return cases


def run_case(case: dict) -> list[dict]:
    """Worker: one program, built once, through both detectors under each
    of its mitigations; one agreement row per mitigation, in order.

    Pure function of the case dict (fresh machines inside the oracle),
    so it runs identically inline and in a pool process.
    """
    if case["instructions"] is not None:
        instructions = instructions_from_reprs(case["instructions"])
    else:
        instructions = build_program(case["generator"], case["seed"], case["blocks"])
    return [
        _agreement_row(case, number, instructions, mitigation)
        for number, mitigation in enumerate(case["mitigations"], start=case["case"])
    ]


def _agreement_row(case: dict, number: int, instructions: list, mitigation: str) -> dict:
    """Row ``number``: ``instructions`` under ``mitigation``, scanned and
    run through the two-fill oracle."""
    static = scan_program(
        instructions,
        mitigation=mitigation,
        name=f"{case['generator']}:{case['seed']}",
    )
    dynamic = leak_check_instructions(
        instructions,
        seed=case["seed"],
        model=case["cpu_model"] or None,
        mitigation=mitigation,
        generator=case["generator"],
        blocks=case["blocks"],
    )
    static_positive = not static.clean
    dynamic_positive = dynamic.finding_kind is not None
    if static_positive and dynamic_positive:
        cell = "both-positive"
    elif static_positive:
        cell = "static-only"
    elif dynamic_positive:
        cell = "dynamic-only"
    else:
        cell = "both-negative"
    return {
        "case": number,
        "source": case["source"],
        "generator": case["generator"],
        "seed": case["seed"],
        "blocks": case["blocks"],
        "label": case["label"],
        "mitigation": mitigation,
        "static_positive": static_positive,
        "static_gadgets": len(static.gadgets),
        "static_kinds": static.kinds(),
        "dynamic_positive": dynamic_positive,
        "dynamic_kind": dynamic.finding_kind,
        "cell": cell,
    }


def _validate_rows(rows: object) -> list[dict]:
    if not isinstance(rows, list) or not all(
        isinstance(row, dict) and row.get("cell") in AGREEMENT_CELLS for row in rows
    ):
        raise ArtifactError(f"malformed cross-validation rows: {rows!r}")
    return rows


def agreement_matrix(rows: Sequence[dict]) -> dict[str, int]:
    """Cell -> count, every cell present, in :data:`AGREEMENT_CELLS` order."""
    matrix = {cell: 0 for cell in AGREEMENT_CELLS}
    for row in rows:
        matrix[row["cell"]] += 1
    return matrix


@dataclass
class CrossValReport:
    """The full cross-validation outcome, canonically serializable."""

    rows: list[dict]
    failures: list[TaskFailure] = field(default_factory=list)

    def matrix(self) -> dict[str, int]:
        return agreement_matrix(self.rows)

    @property
    def violations(self) -> list[dict]:
        """Dynamic leaks the scanner missed — each one a soundness bug."""
        return [row for row in self.rows if row["cell"] == "dynamic-only"]

    @property
    def sound(self) -> bool:
        return not self.violations and not self.failures

    def described_sources(self) -> str:
        counts: dict[str, int] = {}
        for row in self.rows:
            counts[row["source"]] = counts.get(row["source"], 0) + 1
        return ", ".join(f"{counts[s]} {s}" for s in sorted(counts))

    def to_dict(self) -> dict:
        return {
            "schema": CROSSVAL_SCHEMA,
            "cases": len(self.rows),
            "matrix": self.matrix(),
            "sound": self.sound,
            "violations": self.violations,
            "rows": self.rows,
        }


def run_crossval(
    *,
    corpus_dir: str | Path | None = None,
    findings: Sequence[str | Path] = (),
    budget: int = 0,
    seed: int = 0,
    mitigations: Sequence[str] = MITIGATIONS,
    model_name: str | None = None,
    progress: Callable[[str], None] | None = None,
    **supervision: Any,
) -> CrossValReport:
    """Run the full cross-validation under ``supervision`` (jobs, timeout,
    retries); rows come back in stable case order.  An interrupted run
    raises :class:`~repro.errors.CampaignInterrupted`: a partial matrix
    proves nothing about soundness."""
    say = progress or (lambda line: None)
    cases = build_cases(
        corpus_dir=corpus_dir, findings=findings, budget=budget, seed=seed,
        mitigations=mitigations, model_name=model_name,
    )

    def on_result(case_id: int, rows: list[dict]) -> None:
        for row in rows:
            say(
                f"case {row['case']:3d} {row['generator']:<10s} seed={row['seed']} "
                f"[{row['mitigation']}]: {row['cell']}"
            )

    report = run_supervised(
        [(case["case"], case) for case in cases],
        run_case,
        batch="adaptive",  # homogeneous small cases: batch onto warm workers
        validate=_validate_rows,
        on_result=on_result,
        progress=say,
        **supervision,
    )
    rows = [row for case_id in sorted(report.results) for row in report.results[case_id]]
    out = CrossValReport(rows, failures=list(report.failures))
    report.raise_if_interrupted(len(report.results), len(cases), partial=out)
    registry().counter("scan.crossval_cases").inc(len(rows))
    registry().counter("scan.crossval_violations").inc(len(out.violations))
    return out
