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

``--jobs N`` fans tasks out over a :class:`ProcessPoolExecutor`; findings
are emitted in task order whatever the completion order, so ``--jobs 8``
and ``--jobs 1`` write **byte-identical** findings files — the same
determinism contract the experiment campaign runner keeps.

Campaigns run under the shared resilient runtime (docs/resilience.md):
``--timeout`` kills and retries hung workers, worker crashes cost one
attempt instead of the whole run, and completed tasks stream into an
atomic checkpoint (``<out>.checkpoint.json``) that ``--resume`` replays
after a crash or Ctrl-C — converging to the same findings file an
uninterrupted run would have written.

Exit status follows the shared campaign contract
(:mod:`repro.runtime.exitcodes`): 0 clean, 1 when the run found a
*regression* — any architectural divergence, any oracle-invariant
violation, a leak under an active mitigation (``ssbd``/``fence``) — or
any task exhausted its retries; 2 on bad usage; 3 when interrupted with
a checkpoint written.  Leaks under ``none`` are the paper's attacks
working as intended and do not fail the run.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time
from pathlib import Path
from typing import Callable, Sequence

from repro.core.config import ZEN3_MODELS
from repro.cpu.isa import instructions_from_reprs
from repro.errors import ArtifactError, CampaignInterrupted, ConfigError, ReproError
from repro.experiments.cache import content_key
from repro.fuzz import corpus as corpus_mod
from repro.fuzz import harness, oracle
from repro.fuzz.corpus import DEFAULT_CORPUS_DIR, Corpus, CorpusEntry
from repro.fuzz.findings import Finding, write_findings
from repro.fuzz.shrink import shrink_report
from repro.runtime import exitcodes
from repro.runtime.atomic import atomic_write_text
from repro.runtime.chaos import CHAOS_ENV_VAR, ChaosPlan
from repro.runtime.cliutil import build_parser
from repro.runtime.quarantine import quarantine
from repro.runtime.supervisor import (
    DEFAULT_GRACE_S,
    DEFAULT_RETRIES,
    TaskFailure,
    run_supervised,
)
from repro.telemetry import recording
from repro.telemetry.metrics import merge_snapshots, registry
from repro.telemetry.sinks import JsonlSink, trace_header

__all__ = [
    "DEFAULT_BUDGET",
    "DEFAULT_MITIGATIONS",
    "CHECKPOINT_SCHEMA",
    "FuzzCampaignResult",
    "checkpoint_path",
    "derive_case",
    "build_tasks",
    "prefilter_tasks",
    "run_fuzz_campaign",
    "trace_shrunk_findings",
    "regressions",
    "main",
]

CHECKPOINT_SCHEMA = 1

DEFAULT_BUDGET = 100
DEFAULT_MITIGATIONS = ("none", "ssbd")

#: Block-count range for generated programs (inclusive-exclusive).
_BLOCK_RANGE = (10, 44)


def derive_case(master_seed: int, index: int) -> tuple[int, int]:
    """The ``(program seed, blocks)`` of generated case ``index``.

    Independent of job count and process: seeded string RNG, no global
    state — the determinism the byte-identical-JSONL contract rests on.
    """
    rng = random.Random(f"repro-fuzz-case-{master_seed}-{index}")
    return rng.randrange(1, 1 << 30), rng.randrange(*_BLOCK_RANGE)


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
    """The campaign's full task list: corpus replays first, then fresh
    programs (each as a differential task plus an oracle task)."""
    common = {
        "mitigations": list(mitigations),
        "cpu_model": model_name or "",
        "inject": inject or "",
        "shrink": shrink,
        "metrics": metrics,
    }
    tasks: list[dict] = []
    for entry in replay:
        tasks.append(
            {
                "task": len(tasks),
                "check": "differential",
                "generator": entry.generator,
                "seed": entry.seed,
                "blocks": entry.blocks,
                "origin": "corpus",
                "label": entry.label,
                **common,
            }
        )
    for index in range(budget):
        program_seed, blocks = derive_case(seed, index)
        for check, generator in (("differential", "fuzz-v1"), ("oracle", "oracle-v1")):
            tasks.append(
                {
                    "task": len(tasks),
                    "check": check,
                    "generator": generator,
                    "seed": program_seed,
                    "blocks": blocks,
                    "origin": "generated",
                    "label": f"gen-{index}",
                    **common,
                }
            )
    return tasks


def _run_task(task: dict) -> list[dict]:
    """Worker entry point: one task, all its mitigations; finding dicts.

    Pure function of the task description (fresh machines inside), so it
    runs identically inline and in a pool process.  Dict results cross
    the process boundary, exactly like the experiment runner's workers.
    """
    hooks = [task["inject"]] if task["inject"] else []
    model = task["cpu_model"] or None
    # Per-task metrics are a registry *delta*, so they come out identical
    # whether the worker process is fresh (--jobs N) or reused (inline).
    before = registry().snapshot() if task.get("metrics") else None
    found: list[dict] = []
    with harness.chaos(*hooks):
        for mitigation in task["mitigations"]:
            if task["check"] == "differential":
                found.extend(_differential_findings(task, model, mitigation))
            else:
                found.extend(_oracle_findings(task, model, mitigation))
    if before is not None and found:
        delta = registry().delta_since(before)
        for data in found:
            data["metrics"] = delta
    return found


def _differential_findings(task: dict, model: str | None, mitigation: str) -> list[dict]:
    report = harness.check_case(
        task["generator"], task["seed"], task["blocks"],
        model=model, mitigation=mitigation,
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
    finding = Finding(
        kind="architectural-divergence",
        generator=task["generator"],
        seed=task["seed"],
        blocks=task["blocks"],
        cpu_model=report.model_name,
        mitigation=mitigation,
        task=task["task"],
        origin=task["origin"],
        label=task["label"],
        detail=report.divergence.to_detail(),
        shrunk=shrunk,
    )
    return [finding.to_dict()]


def _oracle_findings(task: dict, model: str | None, mitigation: str) -> list[dict]:
    report = oracle.leak_check(
        task["generator"], task["seed"], task["blocks"],
        model=model, mitigation=mitigation,
    )
    kind = report.finding_kind
    if kind is None:
        return []
    finding = Finding(
        kind=kind,
        generator=task["generator"],
        seed=task["seed"],
        blocks=task["blocks"],
        cpu_model=report.model_name,
        mitigation=mitigation,
        task=task["task"],
        origin=task["origin"],
        label=task["label"],
        detail=report.to_detail(),
    )
    return [finding.to_dict()]


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
        resumed: int = 0,
        retried: int = 0,
        prefilter_scanned: int = 0,
        prefilter_skipped: int = 0,
    ) -> None:
        super().__init__(findings)
        self.failures = list(failures)
        self.quarantined = quarantined
        self.resumed = resumed
        self.retried = retried
        self.prefilter_scanned = prefilter_scanned
        self.prefilter_skipped = prefilter_skipped


def prefilter_tasks(tasks: list[dict]) -> tuple[list[dict], int, int]:
    """Drop generated oracle tasks the static scanner proves gadget-free.

    A program the scanner declares clean under every mitigation the task
    would test *cannot* produce an oracle finding (the tested soundness
    invariant, :mod:`repro.static.crossval`), so dynamically executing it
    is pure cost.  The decision is a deterministic function of the
    program alone — corpus replays and differential tasks are never
    skipped (they test the simulator, not the program), so the filter
    cannot mask a pipeline bug.  Returns ``(kept, scanned, skipped)``.
    """
    # Imported here, not at module level: repro.static.crossval imports
    # this module for derive_case, so a top-level import would be a cycle.
    from repro.fuzz.gen import build_program
    from repro.static.gadgets import scan_program

    kept: list[dict] = []
    scanned = skipped = 0
    for task in tasks:
        if task["origin"] == "generated" and task["check"] == "oracle":
            scanned += 1
            instructions = build_program(
                task["generator"], task["seed"], task["blocks"]
            )
            if all(
                scan_program(instructions, mitigation=mitigation).clean
                for mitigation in task["mitigations"]
            ):
                skipped += 1
                registry().counter("scan.prefilter_skipped").inc()
                continue
        kept.append(task)
    return kept, scanned, skipped


def checkpoint_path(out: str | Path) -> Path:
    """Where the resumable checkpoint for findings file ``out`` lives."""
    out = Path(out)
    return out.with_name(out.name + ".checkpoint.json")


def _campaign_fingerprint(tasks: list[dict]) -> str:
    """Content address binding a checkpoint to one exact task list.

    Any change to the campaign parameters, the corpus replay set or the
    task derivation produces different task dicts and therefore a
    different fingerprint — a stale checkpoint is then ignored rather
    than splicing mismatched results into the findings.
    """
    return content_key({"schema": CHECKPOINT_SCHEMA, "tasks": tasks})


def _checkpoint_text(fingerprint: str, fragments: dict[int, str]) -> str:
    """The checkpoint document, built from per-task findings JSON.

    ``json.loads`` of the result is ``{"schema", "fingerprint",
    "completed": {str(task_id): findings}}``, the same document
    ``_recover_fuzz_checkpoint`` has always read.
    """
    completed = ", ".join(
        f'"{task_id}": {fragments[task_id]}' for task_id in sorted(fragments)
    )
    return (
        f'{{"completed": {{{completed}}}, '
        f'"fingerprint": {json.dumps(fingerprint)}, '
        f'"schema": {CHECKPOINT_SCHEMA}}}\n'
    )


def _recover_fuzz_checkpoint(
    path: Path, fingerprint: str, say: Callable[[str], None]
) -> tuple[dict[int, list[dict]], int]:
    """Completed task results from a previous run's checkpoint, validated."""
    if not path.exists():
        return {}, 0
    try:
        data = json.loads(path.read_bytes().decode("utf-8"))
        if data["schema"] != CHECKPOINT_SCHEMA:
            raise ArtifactError(f"checkpoint schema {data['schema']} unsupported")
        stored_fingerprint = data["fingerprint"]
        completed = {
            int(task_id): _validate_findings(found)
            for task_id, found in data["completed"].items()
        }
    except (json.JSONDecodeError, UnicodeDecodeError, KeyError, TypeError,
            ValueError, ArtifactError) as exc:
        quarantined = 0
        if quarantine(path.parent, path, f"unreadable fuzz checkpoint: {exc!r}"):
            quarantined = 1
        say(f"checkpoint {path} unreadable; quarantined and starting fresh")
        return {}, quarantined
    if stored_fingerprint != fingerprint:
        say(f"checkpoint {path} belongs to a different campaign; ignoring")
        return {}, 0
    return completed, 0


def run_fuzz_campaign(
    *,
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
    jobs: int = 1,
    model_name: str | None = None,
    mitigations: Sequence[str] = DEFAULT_MITIGATIONS,
    corpus_dir: str | Path | None = DEFAULT_CORPUS_DIR,
    shrink: bool = True,
    metrics: bool = False,
    inject: str | None = None,
    progress: Callable[[str], None] | None = None,
    timeout: float | None = None,
    retries: int = DEFAULT_RETRIES,
    checkpoint: str | Path | None = None,
    resume: bool = False,
    chaos: str | None = None,
    grace_s: float = DEFAULT_GRACE_S,
    static_prefilter: bool = False,
) -> FuzzCampaignResult:
    """Run one campaign; returns findings in stable task order.

    ``corpus_dir=None`` disables the on-disk corpus (built-in regression
    entries are still replayed); otherwise new architectural findings are
    persisted there for future campaigns to replay first.

    Execution is supervised (:mod:`repro.runtime.supervisor`): hung
    workers are killed at ``timeout`` and retried, crashes cost one
    attempt, and tasks that exhaust ``retries`` become failure entries on
    the returned :class:`FuzzCampaignResult`.  With ``checkpoint`` set,
    completed tasks are persisted atomically as they land; ``resume``
    replays them (the checkpoint is deleted on clean completion).  On
    SIGINT/SIGTERM the in-flight tasks are drained, the checkpoint is
    written, and :class:`repro.errors.CampaignInterrupted` is raised.
    """
    for mitigation in mitigations:
        if mitigation not in harness.MITIGATIONS:
            raise ConfigError(
                f"unknown mitigation {mitigation!r}; "
                f"known: {', '.join(harness.MITIGATIONS)}"
            )
    say = progress or (lambda line: None)
    corp = Corpus(corpus_dir) if corpus_dir is not None else None
    replay = corpus_mod.replay_order(corp)
    tasks = build_tasks(
        budget=budget, seed=seed, mitigations=mitigations,
        model_name=model_name, replay=replay, inject=inject, shrink=shrink,
        metrics=metrics,
    )
    scanned = skipped = 0
    if static_prefilter:
        tasks, scanned, skipped = prefilter_tasks(tasks)
        if skipped:
            say(f"static prefilter: skipped {skipped}/{scanned} generated "
                f"oracle case(s) proven gadget-free")
    by_id = {task["task"]: task for task in tasks}
    fingerprint = _campaign_fingerprint(tasks)
    checkpoint = Path(checkpoint) if checkpoint is not None else None

    results: dict[int, list[dict]] = {}
    quarantined = 0
    resumed = 0
    if resume and checkpoint is not None:
        results, quarantined = _recover_fuzz_checkpoint(checkpoint, fingerprint, say)
        resumed = len(results)
        if resumed:
            say(f"resumed {resumed} completed task(s) from {checkpoint}")

    # Each task's findings are serialized once, when they land; a
    # checkpoint write only joins the cached fragments.
    fragments = {
        task_id: json.dumps(found, sort_keys=True)
        for task_id, found in results.items()
    }

    def write_checkpoint() -> None:
        if checkpoint is not None:
            atomic_write_text(
                checkpoint, _checkpoint_text(fingerprint, fragments)
            )

    def on_result(task_id: int, found: list[dict]) -> None:
        results[task_id] = found
        fragments[task_id] = json.dumps(found, sort_keys=True)
        write_checkpoint()
        task = by_id[task_id]
        verdict = f"{len(found)} finding(s)" if found else "clean"
        say(
            f"task {task['task']:3d} {task['check']:<12s} "
            f"{task['generator']} seed={task['seed']}: {verdict}"
        )

    pending = [task for task in tasks if task["task"] not in results]
    chaos_plan = ChaosPlan.from_spec(chaos) if chaos else None
    try:
        report = run_supervised(
            [(task["task"], task) for task in pending],
            _run_task,
            jobs=jobs,
            timeout=timeout,
            retries=retries,
            # Oracle tasks are small and homogeneous: batch them onto
            # warm workers so the decode cache stays hot and the
            # per-task pipe round-trip amortizes away.
            batch="adaptive",
            chaos=chaos_plan,
            validate=_validate_findings,
            on_result=on_result,
            progress=say,
            grace_s=grace_s,
        )
    finally:
        if chaos_plan is not None:
            chaos_plan.cleanup()

    findings = [
        Finding.from_dict(data)
        for task_id in sorted(results)
        for data in results[task_id]
    ]
    campaign = FuzzCampaignResult(
        findings,
        failures=report.failures,
        quarantined=quarantined + (corp.quarantined if corp is not None else 0),
        resumed=resumed,
        retried=report.retried,
        prefilter_scanned=scanned,
        prefilter_skipped=skipped,
    )
    if report.interrupted:
        write_checkpoint()
        raise CampaignInterrupted(
            f"fuzz campaign interrupted with {len(results)}/{len(tasks)} "
            f"task(s) checkpointed",
            partial=campaign,
            checkpoint=checkpoint,
        )
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
    if checkpoint is not None:
        checkpoint.unlink(missing_ok=True)
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
        "--jobs", "-j", type=int, default=1, metavar="N",
        help="worker processes (default 1 = serial; output is identical)",
    )
    parser.add_argument(
        "--cpu-model", default=None, choices=sorted(ZEN3_MODELS), metavar="NAME",
        help="TABLE III platform to fuzz (default: ryzen9-5900x)",
    )
    parser.add_argument(
        "--mitigation", default=",".join(DEFAULT_MITIGATIONS), metavar="LIST",
        help=(
            "comma-separated mitigation configs to evaluate "
            f"(from: {', '.join(harness.MITIGATIONS)}; "
            f"default {','.join(DEFAULT_MITIGATIONS)})"
        ),
    )
    parser.add_argument(
        "--out", default="fuzz-findings.jsonl", metavar="FILE",
        help="findings JSONL path (default fuzz-findings.jsonl)",
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
        "--static-prefilter", action="store_true",
        help="skip dynamically executing generated oracle programs the "
             "static scanner (repro-scan) proves gadget-free; the skip "
             "decision is a pure function of the program, so findings "
             "stay deterministic (see docs/static-analysis.md)",
    )
    parser.add_argument(
        "--metrics", action="store_true",
        help="attach each finding task's deterministic telemetry-counter "
             "delta as a 'metrics' field and print the campaign rollup",
    )
    parser.add_argument(
        "--inject", default=None, choices=harness.CHAOS_HOOK_NAMES, metavar="HOOK",
        help="self-test: arm a pipeline fault-injection hook; the campaign "
             "must then report (and shrink) architectural divergences",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-task deadline; a hung worker is killed and retried",
    )
    parser.add_argument(
        "--retries", type=int, default=DEFAULT_RETRIES, metavar="N",
        help=f"retry budget per task after a crash/timeout/error "
             f"(default {DEFAULT_RETRIES}, deterministic backoff)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="replay tasks already completed in the checkpoint next to --out "
             "(after a crash or Ctrl-C)",
    )
    parser.add_argument(
        "--chaos", default=os.environ.get(CHAOS_ENV_VAR), metavar="SPEC",
        help="self-test: inject runtime faults, e.g. "
             "'crash@3,hang@5,corrupt@7,interrupt@9' "
             f"(default from ${CHAOS_ENV_VAR})",
    )
    args = parser.parse_args(argv)

    mitigations = [part.strip() for part in args.mitigation.split(",") if part.strip()]
    corpus_dir = None if args.no_corpus else args.corpus_dir
    replayed = len(
        corpus_mod.replay_order(Corpus(corpus_dir) if corpus_dir else None)
    )
    started = time.perf_counter()
    try:
        findings = run_fuzz_campaign(
            budget=max(0, args.budget),
            seed=args.seed,
            jobs=max(1, args.jobs),
            model_name=args.cpu_model,
            mitigations=mitigations,
            corpus_dir=corpus_dir,
            shrink=not args.no_shrink,
            metrics=args.metrics,
            inject=args.inject,
            progress=lambda line: print(f"  .. {line}", file=sys.stderr),
            timeout=args.timeout,
            retries=max(0, args.retries),
            checkpoint=checkpoint_path(args.out),
            resume=args.resume,
            chaos=args.chaos,
            static_prefilter=args.static_prefilter,
        )
    except ConfigError as exc:
        print(f"repro-fuzz: {exc}", file=sys.stderr)
        return exitcodes.EXIT_USAGE
    except CampaignInterrupted as exc:
        print(f"repro-fuzz: {exc}", file=sys.stderr)
        print(
            f"repro-fuzz: checkpoint written to {exc.checkpoint}; "
            f"re-run with --resume to continue",
            file=sys.stderr,
        )
        return exitcodes.EXIT_INTERRUPTED

    traced = 0
    if args.trace_findings:
        traced = trace_shrunk_findings(
            findings, args.out,
            progress=lambda line: print(f"  .. {line}", file=sys.stderr),
        )
    path = write_findings(args.out, findings)
    by_kind: dict[str, int] = {}
    for finding in findings:
        by_kind[finding.kind] = by_kind.get(finding.kind, 0) + 1
    bad = regressions(findings)
    print(
        f"fuzz campaign: {args.budget} generated programs + {replayed} corpus "
        f"replays, mitigations [{', '.join(mitigations)}], "
        f"{time.perf_counter() - started:.1f}s wall with --jobs {max(1, args.jobs)}"
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
    if findings.prefilter_scanned:
        print(
            f"  static prefilter: scanned {findings.prefilter_scanned} "
            f"generated oracle case(s), skipped "
            f"{findings.prefilter_skipped} proven gadget-free"
        )
    if findings.resumed:
        print(f"  resumed {findings.resumed} task(s) from checkpoint")
    if findings.quarantined:
        print(f"  quarantined {findings.quarantined} corrupt file(s)")
    for failure in findings.failures:
        print(
            f"  FAILED task {failure.task}: {failure.kind} after "
            f"{failure.attempts} attempt(s) — {failure.message}"
        )
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
