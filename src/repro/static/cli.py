"""The ``repro-scan`` CLI: static scans, fence advice, cross-validation.

Three subcommands over the same analyzer:

* ``scan`` — lift and scan programs (corpus entries, ``case:`` targets,
  generated batches) per mitigation, emitting a canonical findings JSONL
  with one record per (program, mitigation) in stable task order.  A
  task is one program, built once and scanned under every mitigation.
  ``--jobs N`` fans programs out over worker processes; the artifact is
  byte-identical whatever ``N`` was, which ``make scan-smoke`` enforces
  with a literal ``cmp``.
* ``advise`` — compute, apply and verify a minimal fence placement for
  each target (:mod:`repro.static.advisor`).
* ``crossval`` — replay corpus/shrunk/generated cases through both the
  scanner and the dynamic two-fill oracle and print the agreement
  matrix (:mod:`repro.static.crossval`); exits 1 on any soundness
  violation, because a dynamic leak the scanner missed is a bug in the
  scanner, never in the program.

Exit codes follow the shared campaign contract
(:mod:`repro.runtime.exitcodes`): 0 clean, 1 failures/violations, 2 bad
usage, 3 interrupted (``scan`` and ``crossval`` keep no checkpoint, so
an interrupted run writes no ``--out`` file).
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.core.config import ZEN3_MODELS
from repro.errors import ArtifactError
from repro.fuzz import corpus as corpus_mod
from repro.fuzz.corpus import DEFAULT_CORPUS_DIR, Corpus, CorpusEntry, program_set
from repro.fuzz.gen import build_program, parse_case
from repro.mitigations import MITIGATIONS, parse_mitigations
from repro.runtime import exitcodes
from repro.runtime.atomic import atomic_write_text, canonical
from repro.runtime.cliutil import (
    add_supervision_flags,
    build_parser,
    console_main,
    print_progress,
    supervision,
)
from repro.runtime.supervisor import run_supervised
from repro.static import crossval as crossval_mod
from repro.static.advisor import advise
from repro.static.gadgets import scan_program
from repro.static.report import (
    SCAN_SCHEMA,
    render_crossval,
    render_plan,
    render_scan,
)

__all__ = ["main", "run_scan_batch"]

_EPILOG = """\
targets are `case:<generator>:<seed>:<blocks>` (the repro-trace syntax);
`scan` with no targets scans the persistent corpus replay set.
`crossval` exits 1 on any soundness violation: a dynamically observed
leak the scanner failed to flag"""


def _scan_tasks(
    targets: Sequence[str],
    *,
    corpus_dir: str | Path | None,
    budget: int,
    seed: int,
    mitigations: Sequence[str],
) -> list[dict]:
    """The scan task list, one task per program: explicit targets (else
    the corpus replay set), then the generated programs."""
    if targets:
        replay = [CorpusEntry(*parse_case(target), label=target) for target in targets]
    else:
        corp = Corpus(corpus_dir) if corpus_dir is not None else None
        replay = corpus_mod.replay_order(corp)
    return [
        {
            "task": task_id,
            "generator": entry.generator,
            "seed": entry.seed,
            "blocks": entry.blocks,
            "label": entry.label,
            "mitigations": list(mitigations),
        }
        for task_id, (_, entry) in enumerate(program_set(replay, budget, seed))
    ]


def _scan_one(task: dict) -> list[dict]:
    """Worker: build one program, scan it under each of the task's
    mitigations; one JSONL record per mitigation, in order."""
    instructions = build_program(task["generator"], task["seed"], task["blocks"])
    name = f"{task['generator']}:{task['seed']}:{task['blocks']}"
    identity = {
        "schema": SCAN_SCHEMA,
        "generator": task["generator"],
        "seed": task["seed"],
        "blocks": task["blocks"],
        "label": task["label"],
    }
    return [
        {**identity, **scan_program(instructions, mitigation=m, name=name).to_dict()}
        for m in task["mitigations"]
    ]


def _validate_records(records: object) -> list[dict]:
    if not isinstance(records, list) or not all(
        isinstance(record, dict) and "gadgets" in record for record in records
    ):
        raise ArtifactError(f"malformed scan records: {records!r}")
    return records


def run_scan_batch(
    tasks: list[dict],
    *,
    progress: Callable[[str], None] | None = None,
    **supervision: Any,
):
    """Supervised fan-out of scan tasks under ``supervision`` (jobs,
    timeout, retries); records in stable task order.  An interrupted run
    raises :class:`~repro.errors.CampaignInterrupted`."""
    say = progress or (lambda line: None)

    def on_result(task_id: int, records: list[dict]) -> None:
        for record in records:
            gadgets = len(record["gadgets"])
            verdict = "clean" if record["clean"] else f"{gadgets} gadget(s)"
            say(f"task {task_id:3d} {record['name']:<24s} "
                f"[{record['mitigation']}]: {verdict}")

    report = run_supervised(
        [(task["task"], task) for task in tasks],
        _scan_one,
        validate=_validate_records,
        on_result=on_result,
        progress=say,
        **supervision,
    )
    records = [record for task_id in sorted(report.results)
               for record in report.results[task_id]]
    report.raise_if_interrupted(len(report.results), len(tasks), partial=records)
    return records, report


def _cmd_scan(args) -> int:
    tasks = _scan_tasks(
        args.targets,
        corpus_dir=None if args.no_corpus else args.corpus_dir,
        budget=max(0, args.budget),
        seed=args.seed,
        mitigations=parse_mitigations(args.mitigation),
    )
    records, report = run_scan_batch(
        tasks, progress=print_progress if args.progress else None,
        **supervision(args),
    )
    if args.out:
        path = atomic_write_text(
            args.out, "".join(canonical(record) + "\n" for record in records)
        )
        print(f"scan findings written to {path}")
    flagged = sum(1 for record in records if not record["clean"])
    gadgets = sum(len(record["gadgets"]) for record in records)
    print(
        f"scanned {len(records)} (program, mitigation) case(s): "
        f"{flagged} flagged, {gadgets} gadget(s) total"
    )
    if args.verbose:
        for record in records:
            if not record["clean"]:
                print(f"  {record['name']} [{record['mitigation']}]: "
                      f"{record['kinds']}")
    for failure in report.failures:
        print(f"  FAILED task {failure.task}: {failure.describe()}")
    return exitcodes.EXIT_FAILURES if report.failures else exitcodes.EXIT_OK


def _cmd_advise(args) -> int:
    status = exitcodes.EXIT_OK
    for target in args.targets:
        generator, seed, blocks = parse_case(target)
        instructions = build_program(generator, seed, blocks)
        plan = advise(instructions, name=target)
        print(render_plan(plan))
        if args.verbose:
            print(render_scan(plan.before, verbose=True))
        if not plan.bypass_clean:
            status = exitcodes.EXIT_FAILURES
    return status


def _cmd_crossval(args) -> int:
    report = crossval_mod.run_crossval(
        corpus_dir=None if args.no_corpus else args.corpus_dir,
        findings=args.findings,
        budget=max(0, args.budget),
        seed=args.seed,
        mitigations=parse_mitigations(args.mitigation),
        model_name=args.cpu_model,
        progress=print_progress if args.progress else None,
        **supervision(args),
    )
    if args.out:
        path = atomic_write_text(args.out, canonical(report.to_dict()) + "\n")
        print(f"agreement report written to {path}")
    print(render_crossval(report))
    for failure in report.failures:
        print(f"  FAILED case {failure.task}: {failure.describe()}")
    return exitcodes.EXIT_OK if report.sound else exitcodes.EXIT_FAILURES


@console_main("repro-scan", usage=(ArtifactError,))
def main(argv: list[str] | None = None) -> int:
    parser = build_parser(
        "repro-scan",
        "Static speculative-leakage scanner: taint-based gadget detection "
        "over the micro-ISA, cross-validated against the dynamic two-fill "
        "oracle.",
        epilog=_EPILOG,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def targets(p, targets_help: str, nargs: str) -> None:
        p.add_argument("targets", nargs=nargs, help=targets_help)
        p.add_argument("--verbose", "-v", action="store_true",
                       help="print per-gadget spans and preconditions")

    def campaign(p) -> None:
        """The program set and pool flags ``scan`` and ``crossval`` share."""
        p.add_argument("--mitigation", default=",".join(MITIGATIONS), metavar="LIST",
                       help=f"comma-separated configs to run under "
                            f"(default {','.join(MITIGATIONS)})")
        p.add_argument("--budget", type=int, default=0, metavar="N",
                       help="additionally run N generated cases "
                            "(fuzz-v1 + oracle-v1 each, default 0)")
        p.add_argument("--seed", type=int, default=0,
                       help="master seed for --budget derivation (default 0)")
        p.add_argument("--corpus-dir", default=DEFAULT_CORPUS_DIR, metavar="DIR",
                       help=f"corpus location (default {DEFAULT_CORPUS_DIR})")
        p.add_argument("--no-corpus", action="store_true",
                       help="skip on-disk corpus entries "
                            "(built-in regressions still run)")
        p.add_argument("--progress", action="store_true",
                       help="stream per-task progress to stderr")
        add_supervision_flags(p)

    scan = sub.add_parser("scan", help="scan programs for leakage gadgets")
    targets(scan, "case:<generator>:<seed>:<blocks> targets "
                  "(default: the corpus replay set)", "*")
    campaign(scan)
    scan.add_argument("--out", default="scan-findings.jsonl", metavar="FILE",
                      help="findings JSONL path (default scan-findings.jsonl; "
                           "'' disables)")
    scan.set_defaults(func=_cmd_scan)

    adv = sub.add_parser("advise", help="minimal fence placement per target")
    targets(adv, "case:<generator>:<seed>:<blocks> targets", "+")
    adv.set_defaults(func=_cmd_advise)

    cross = sub.add_parser(
        "crossval", help="agreement matrix: scanner vs dynamic oracle"
    )
    campaign(cross)
    cross.add_argument("--findings", action="append", default=[], metavar="FILE",
                       help="replay shrunk reproducers from this findings "
                            "JSONL (repeatable)")
    cross.add_argument("--cpu-model", default=None, choices=sorted(ZEN3_MODELS),
                       metavar="NAME", help="TABLE III platform "
                                            "(default: ryzen9-5900x)")
    cross.add_argument("--out", default="", metavar="FILE",
                       help="also write the full agreement report as JSON")
    cross.set_defaults(func=_cmd_crossval)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
