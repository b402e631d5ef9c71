"""The ``repro-fuzz`` campaign engine and CLI.

A campaign is a deterministic function of ``(--seed, --budget,
--cpu-model, --mitigation)``:

1. the persistent corpus is replayed first — built-in regression entries,
   then any on-disk cases from previous campaigns;
2. ``--budget`` fresh program seeds are derived from the master seed; each
   drives one dual-execution (``fuzz-v1``) task and one leakage-oracle
   (``oracle-v1``) task, every task evaluated under every requested
   mitigation;
3. architectural divergences are minimized by the shrinker and appended
   to the corpus; everything lands in a schema-versioned findings JSONL.

``--jobs N`` fans tasks out over the supervised worker pool
(:func:`repro.runtime.supervisor.run_supervised`); findings
are emitted in task order whatever the completion order, so ``--jobs 8``
and ``--jobs 1`` write **byte-identical** findings files — the same
determinism contract the experiment campaign runner keeps.

Campaigns run under the shared resilient runtime (docs/resilience.md):
``--timeout`` kills and retries hung workers, worker crashes cost one
attempt instead of the whole run, and completed tasks are appended to a
checkpoint journal (``<out>.checkpoint.json``, :mod:`repro.runtime.journal`)
that ``--resume`` replays after a crash or Ctrl-C — converging to the
same findings file an uninterrupted run would have written.

Exit status follows the shared campaign contract
(:mod:`repro.runtime.exitcodes`): 0 clean, 1 when the run found a
*regression* — any architectural divergence, any oracle-invariant
violation, a leak under an active mitigation (``ssbd``/``fence``) — or
any task exhausted its retries; 2 on bad usage; 3 when interrupted with
a checkpoint written.  Leaks under ``none`` are the paper's attacks
working as intended and do not fail the run.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.core.config import ZEN3_MODELS
from repro.cpu.isa import instructions_from_reprs
from repro.errors import ArtifactError, ReproError
from repro.fuzz import corpus as corpus_mod
from repro.fuzz import harness, oracle
from repro.fuzz.corpus import DEFAULT_CORPUS_DIR, Corpus, CorpusEntry, program_set
from repro.fuzz.findings import Finding, write_findings
from repro.fuzz.gen import build_program
from repro.fuzz.shrink import shrink_report
from repro.mitigations import MITIGATIONS, parse_mitigations
from repro.runtime import exitcodes
from repro.runtime.cliutil import (
    add_resume_flags,
    add_supervision_flags,
    build_parser,
    console_main,
    print_progress,
    supervision,
)
from repro.runtime.journal import run_journaled
from repro.runtime.supervisor import TaskFailure, metered
from repro.telemetry import recording
from repro.telemetry.metrics import merge_snapshots
from repro.telemetry.sinks import JsonlSink, trace_header

__all__ = [
    "DEFAULT_BUDGET",
    "DEFAULT_MITIGATIONS",
    "FuzzCampaignResult",
    "checkpoint_path",
    "build_tasks",
    "run_fuzz_campaign",
    "trace_shrunk_findings",
    "regressions",
    "main",
]

DEFAULT_BUDGET = 100
DEFAULT_MITIGATIONS = ("none", "ssbd")

def build_tasks(
    *,
    budget: int,
    seed: int,
    mitigations: Sequence[str],
    model_name: str | None,
    replay: Sequence[CorpusEntry],
    inject: str | None = None,
    shrink: bool = True,
    metrics: bool = False,
) -> list[dict]:
    """The campaign's task list, one task per program of
    :func:`~repro.fuzz.corpus.program_set`: corpus replays and generated
    ``fuzz-v1`` programs get the differential check, generated
    ``oracle-v1`` programs the leakage oracle."""
    common = {
        "mitigations": list(mitigations),
        "cpu_model": model_name or "",
        "inject": inject or "",
        "shrink": shrink,
        "metrics": metrics,
    }
    tasks: list[dict] = []
    for source, entry in program_set(replay, budget, seed):
        oracle_task = source == "generated" and entry.generator == "oracle-v1"
        tasks.append(
            {
                "task": len(tasks),
                "check": "oracle" if oracle_task else "differential",
                "generator": entry.generator,
                "seed": entry.seed,
                "blocks": entry.blocks,
                "origin": source,
                "label": entry.label,
                **common,
            }
        )
    return tasks


def _run_task(task: dict) -> list[dict]:
    """Worker entry point: one program, built once, checked under each of
    the task's mitigations in order; finding dicts.

    Pure function of the task description (fresh machines inside), so it
    runs identically inline and in a pool process.  Dict results cross
    the process boundary, exactly like the experiment runner's workers.
    """
    found, delta = metered(_findings, task, enabled=task["metrics"])
    if delta is not None:
        for data in found:
            data["metrics"] = delta
    return found


def _findings(task: dict) -> list[dict]:
    hooks = [task["inject"]] if task["inject"] else []
    model = task["cpu_model"] or None
    found: list[dict] = []
    instructions = build_program(task["generator"], task["seed"], task["blocks"])
    check = _oracle_findings if task["check"] == "oracle" else _differential_findings
    with harness.chaos(*hooks):
        for mitigation in task["mitigations"]:
            found.extend(check(task, instructions, model, mitigation))
    return found


def _differential_findings(
    task: dict, instructions: list, model: str | None, mitigation: str
) -> list[dict]:
    report = harness.run_dual(
        instructions, seed=task["seed"], model=model, mitigation=mitigation
    )
    if report.divergence is None:
        return []
    shrunk = None
    if task["shrink"]:

        def reproduces(candidate: list) -> bool:
            trial = harness.run_dual(
                candidate, seed=task["seed"], model=model, mitigation=mitigation
            )
            return trial.divergence is not None

        shrunk = shrink_report(report.instructions, reproduces)
    return _finding(task, "architectural-divergence", report.model_name, mitigation,
                    report.divergence.to_detail(), shrunk)


def _oracle_findings(
    task: dict, instructions: list, model: str | None, mitigation: str
) -> list[dict]:
    report = oracle.leak_check_instructions(
        instructions, seed=task["seed"], model=model, mitigation=mitigation,
        generator=task["generator"], blocks=task["blocks"],
    )
    kind = report.finding_kind
    if kind is None:
        return []
    return _finding(task, kind, report.model_name, mitigation, report.to_detail())


def _finding(task: dict, kind: str, cpu_model: str, mitigation: str,
             detail: dict, shrunk: dict | None = None) -> list[dict]:
    """The one-finding result of ``task`` under ``mitigation``."""
    return [Finding(
        kind=kind, generator=task["generator"], seed=task["seed"],
        blocks=task["blocks"], cpu_model=cpu_model, mitigation=mitigation,
        task=task["task"], origin=task["origin"], label=task["label"],
        detail=detail, shrunk=shrunk,
    ).to_dict()]


def _validate_findings(found: object) -> list[dict]:
    """Supervised-pool result validation: every finding must round-trip."""
    if not isinstance(found, list):
        raise ArtifactError(
            f"worker returned {type(found).__name__}, expected a findings list"
        )
    for data in found:
        Finding.from_dict(data)
    return found


class FuzzCampaignResult(list):
    """Findings in stable task order, plus campaign telemetry."""

    def __init__(
        self,
        findings: Sequence[Finding] = (),
        *,
        failures: Sequence[TaskFailure] = (),
        quarantined: int = 0,
        replayed: int = 0,
        resumed: int = 0,
        retried: int = 0,
    ) -> None:
        super().__init__(findings)
        self.failures = list(failures)
        self.quarantined = quarantined
        self.replayed = replayed
        self.resumed = resumed
        self.retried = retried


def checkpoint_path(out: str | Path) -> Path:
    """Where the resumable checkpoint for findings file ``out`` lives."""
    out = Path(out)
    return out.with_name(out.name + ".checkpoint.json")


def run_fuzz_campaign(
    *,
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
    model_name: str | None = None,
    mitigations: Sequence[str] = DEFAULT_MITIGATIONS,
    corpus_dir: str | Path | None = DEFAULT_CORPUS_DIR,
    shrink: bool = True,
    metrics: bool = False,
    inject: str | None = None,
    progress: Callable[[str], None] | None = None,
    checkpoint: str | Path | None = None,
    resume: bool = False,
    chaos: str | None = None,
    **supervision: Any,
) -> FuzzCampaignResult:
    """Run one campaign; returns findings in stable task order.

    ``corpus_dir=None`` disables the on-disk corpus (built-in regression
    entries are still replayed); otherwise new architectural findings are
    persisted there for future campaigns to replay first.

    Execution is supervised (:mod:`repro.runtime.supervisor`, which
    ``supervision`` — jobs, timeout, retries, grace_s — configures): hung
    workers are killed at the deadline and retried, crashes cost one
    attempt, and tasks that exhaust their retries become failure entries
    on the returned :class:`FuzzCampaignResult`.  With ``checkpoint`` set,
    each completed task is appended to the journal as one fsync'd line;
    ``resume`` replays them (the journal is deleted on clean completion).
    On SIGINT/SIGTERM the in-flight tasks are drained into the journal
    and :class:`repro.errors.CampaignInterrupted` is raised.
    """
    mitigations = parse_mitigations(mitigations)
    say = progress or (lambda line: None)
    corp = Corpus(corpus_dir) if corpus_dir is not None else None
    replay = corpus_mod.replay_order(corp)
    tasks = build_tasks(
        budget=budget, seed=seed, mitigations=mitigations,
        model_name=model_name, replay=replay, inject=inject, shrink=shrink,
        metrics=metrics,
    )

    def on_result(task_id: int, found: list[dict]) -> None:
        task = tasks[task_id]
        verdict = f"{len(found)} finding(s)" if found else "clean"
        say(
            f"task {task['task']:3d} {task['check']:<12s} "
            f"{task['generator']} seed={task['seed']}: {verdict}"
        )

    results, report, resumed, quarantined = run_journaled(
        [(task["task"], task) for task in tasks],
        _run_task,
        checkpoint=checkpoint,
        resume=resume,
        validate=_validate_findings,
        on_result=on_result,
        chaos=chaos,
        progress=say,
        # Oracle tasks are small and homogeneous: batch them onto warm
        # workers so the decode cache stays hot and the per-task pipe
        # round-trip amortizes away.
        batch="adaptive",
        **supervision,
    )
    findings = [
        Finding.from_dict(data)
        for task_id in sorted(results)
        for data in results[task_id]
    ]
    campaign = FuzzCampaignResult(
        findings,
        failures=report.failures,
        quarantined=quarantined + (corp.quarantined if corp is not None else 0),
        replayed=len(replay),
        resumed=resumed,
        retried=report.retried,
    )
    report.raise_if_interrupted(len(results), len(tasks), partial=campaign,
                                checkpoint=checkpoint)
    if corp is not None:
        for finding in findings:
            if finding.kind != "leak" and finding.origin == "generated":
                corp.add(
                    CorpusEntry(
                        finding.generator,
                        finding.seed,
                        finding.blocks,
                        label=f"campaign:{finding.label}",
                        origin="campaign",
                    )
                )
    return campaign


def trace_shrunk_findings(
    findings: Sequence[Finding],
    out: str | Path,
    progress: Callable[[str], None] | None = None,
) -> int:
    """Record a pipeline trace of every minimized reproducer.

    For each finding that carries a ``shrunk`` program, the minimized
    instructions are rebuilt from their reprs and replayed once under the
    finding's own seed/model/mitigation with tracing on.  Traces land in
    a ``traces/`` directory next to the findings file and each finding's
    ``trace`` field records the relative path — a triager can go straight
    from the JSONL line to ``repro-trace summarize``/``export``.

    Replay happens serially in the parent process after the campaign, so
    it changes neither the task fingerprints nor the checkpoint format,
    and the traces are deterministic whatever ``--jobs`` was.
    """
    say = progress or (lambda line: None)
    traces_dir = Path(out).parent / "traces"
    traced = 0
    for finding in findings:
        if finding.shrunk is None:
            continue
        name = f"task{finding.task:04d}-{finding.mitigation}.trace.jsonl"
        sink = JsonlSink(
            traces_dir / name,
            header=trace_header(
                target=f"finding:task{finding.task}",
                generator=finding.generator,
                seed=finding.seed,
                blocks=finding.blocks,
                mitigation=finding.mitigation,
                cpu_model=finding.cpu_model,
                shrunk_count=finding.shrunk["count"],
            ),
        )
        instructions = instructions_from_reprs(finding.shrunk["instructions"])
        with recording(sink):
            try:
                harness.execute_program(
                    instructions,
                    seed=finding.seed,
                    model=finding.cpu_model,
                    mitigation=finding.mitigation,
                )
            except ReproError as exc:
                # The trace up to the failure is still written and still
                # useful; faults inside the window are normal here.
                say(f"trace {name}: replay stopped early ({exc})")
        finding.trace = f"traces/{name}"
        traced += 1
        say(f"traced minimized repro of task {finding.task} -> traces/{name}")
    return traced


def regressions(findings: Sequence[Finding]) -> list[Finding]:
    """The findings that should fail a campaign: every architectural
    problem, plus leaks that survived an active mitigation."""
    return [
        finding
        for finding in findings
        if finding.kind != "leak" or finding.mitigation != "none"
    ]


_EPILOG = """\
a "regression" (exit 1) is any architectural divergence, any
oracle-invariant violation, or a leak under an active mitigation
(ssbd/fence); leaks under `none` are the paper's attacks working as
intended and do not fail the run"""


@console_main("repro-fuzz")
def main(argv: list[str] | None = None) -> int:
    parser = build_parser(
        "repro-fuzz",
        "Differential speculation fuzzing: dual-execution correctness "
        "checks plus a two-fill leakage oracle, per mitigation.",
        epilog=_EPILOG,
    )
    parser.add_argument(
        "--budget", type=int, default=DEFAULT_BUDGET, metavar="N",
        help=f"generated programs per campaign (default {DEFAULT_BUDGET})",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="master campaign seed (default 0)"
    )
    parser.add_argument(
        "--cpu-model", default=None, choices=sorted(ZEN3_MODELS), metavar="NAME",
        help="TABLE III platform to fuzz (default: ryzen9-5900x)",
    )
    parser.add_argument(
        "--mitigation", default=",".join(DEFAULT_MITIGATIONS), metavar="LIST",
        help=(
            "comma-separated mitigation configs to evaluate "
            f"(from: {', '.join(MITIGATIONS)}; "
            f"default {','.join(DEFAULT_MITIGATIONS)})"
        ),
    )
    parser.add_argument(
        "--out", default="fuzz-findings.jsonl", metavar="FILE",
        help="findings JSONL path (default fuzz-findings.jsonl); the "
             "checkpoint journal --resume reads sits next to it",
    )
    parser.add_argument(
        "--corpus-dir", default=DEFAULT_CORPUS_DIR, metavar="DIR",
        help=f"persistent corpus location (default {DEFAULT_CORPUS_DIR})",
    )
    parser.add_argument(
        "--no-corpus", action="store_true",
        help="do not read or write the on-disk corpus "
             "(built-in regressions still replay)",
    )
    parser.add_argument(
        "--no-shrink", action="store_true",
        help="skip counterexample minimization",
    )
    parser.add_argument(
        "--trace-findings", action="store_true",
        help="replay each minimized reproducer with pipeline tracing on; "
             "traces land under traces/ next to --out and each finding "
             "gains a 'trace' field (see docs/observability.md)",
    )
    parser.add_argument(
        "--inject", default=None, choices=harness.CHAOS_HOOK_NAMES, metavar="HOOK",
        help="self-test: arm a pipeline fault-injection hook; the campaign "
             "must then report (and shrink) architectural divergences",
    )
    add_supervision_flags(parser)
    add_resume_flags(parser)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    pool = supervision(args)
    mitigations = parse_mitigations(args.mitigation)
    findings = run_fuzz_campaign(
        **pool,
        budget=max(0, args.budget),
        seed=args.seed,
        model_name=args.cpu_model,
        mitigations=mitigations,
        corpus_dir=None if args.no_corpus else args.corpus_dir,
        shrink=not args.no_shrink,
        metrics=args.metrics,
        inject=args.inject,
        progress=print_progress,
        checkpoint=checkpoint_path(args.out),
        resume=args.resume,
        chaos=args.chaos,
    )

    traced = 0
    if args.trace_findings:
        traced = trace_shrunk_findings(findings, args.out, progress=print_progress)
    path = write_findings(args.out, findings)
    by_kind: dict[str, int] = {}
    for finding in findings:
        by_kind[finding.kind] = by_kind.get(finding.kind, 0) + 1
    bad = regressions(findings)
    print(
        f"fuzz campaign: {args.budget} generated programs + {findings.replayed} corpus "
        f"replays, mitigations [{', '.join(mitigations)}], "
        f"{time.perf_counter() - started:.1f}s wall with --jobs {pool['jobs']}"
    )
    for kind in sorted(by_kind):
        print(f"  {kind}: {by_kind[kind]}")
    print(f"  findings written to {path}")
    if traced:
        print(f"  traced {traced} minimized repro(s) under {Path(args.out).parent / 'traces'}")
    if args.metrics:
        rollup = merge_snapshots(
            [f.metrics for f in findings if f.metrics is not None]
        )
        counters = rollup.get("counters", {})
        print(f"  metrics rollup over {len([f for f in findings if f.metrics])} "
              f"finding(s):")
        for name in sorted(counters):
            print(f"    {counters[name]:>9}  {name}")
    if findings.resumed:
        print(f"  resumed {findings.resumed} task(s) from checkpoint")
    if findings.quarantined:
        print(f"  quarantined {findings.quarantined} corrupt file(s)")
    for failure in findings.failures:
        print(f"  FAILED task {failure.task}: {failure.describe()}")
    if bad or findings.failures:
        if bad:
            print(f"REGRESSIONS: {len(bad)} finding(s) that must not happen "
                  f"(architectural, or leaking despite mitigation)")
        if findings.failures:
            print(f"FAILURES: {len(findings.failures)} task(s) exhausted "
                  f"their retry budget")
        return exitcodes.EXIT_FAILURES
    print("clean: no architectural divergences, no mitigated leaks")
    return exitcodes.EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
