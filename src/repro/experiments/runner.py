"""Experiment registry and campaign runner.

``repro-experiments --list`` shows every table/figure reproduction;
``repro-experiments fig2 table1`` runs a selection; no arguments runs
the quick set (everything but the long leak campaigns).

The runner is a campaign engine, not a loop:

* **parallel scheduling** — every driver builds its own ``Machine``, so
  experiments are embarrassingly parallel; ``--jobs N`` fans them out
  across a :class:`concurrent.futures.ProcessPoolExecutor`;
* **result cache** — results are content-addressed by (experiment name,
  seed, :class:`CpuModel`, package version) under ``.repro-cache/``;
  unchanged experiments are replayed from disk (``--no-cache`` opts out);
* **JSON artifacts** — ``--json DIR`` writes each result to
  ``DIR/<name>.json`` plus a ``campaign.json`` manifest, the inputs to
  :mod:`repro.experiments.report`.

Rendered output is emitted in request order whatever the completion
order, so ``--jobs 8`` and ``--jobs 1`` print byte-identical reports.
See docs/experiments.md for the full catalog.

Execution is resilient (see docs/resilience.md): workers run under the
supervised pool in :mod:`repro.runtime.supervisor` — per-task
``--timeout`` deadlines, ``--retries`` with deterministic backoff, crash
isolation — the manifest is checkpointed atomically after every
completion so ``--resume`` continues an interrupted campaign, and tasks
that exhaust their retries become structured failure entries instead of
aborting the run.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.errors import (
    ArtifactError,
    CampaignInterrupted,
    ConfigError,
    UnknownExperimentError,
)
from repro.experiments import (
    attack_e2e,
    attack_evals,
    fig2_exec_types,
    fig4_hash,
    fig5_eviction,
    fig7_collisions,
    fig11_fingerprint,
    fig12_ssbd_overhead,
    robustness,
    scan_crossval,
    sec3_selection,
    sec4_isolation,
    sec4_transient,
    sec5_extensions,
    sec6_mitigations,
    table1_state_machine,
    table2_counters,
    table3_platforms,
    table4_comparison,
)
from repro.experiments.artifacts import (
    MANIFEST_NAME,
    artifact_path,
    read_artifact,
    read_manifest,
    write_artifact,
    write_manifest,
)
from repro.experiments.base import ExperimentResult
from repro.experiments.cache import DEFAULT_CACHE_DIR, ResultCache, cache_key
from repro.runtime import exitcodes
from repro.runtime.chaos import CHAOS_ENV_VAR, ChaosPlan
from repro.runtime.cliutil import build_parser
from repro.runtime.quarantine import quarantine
from repro.runtime.supervisor import (
    DEFAULT_GRACE_S,
    DEFAULT_RETRIES,
    TaskFailure,
    run_supervised,
)

__all__ = [
    "EXPERIMENTS",
    "QUICK_SET",
    "COST_TIERS",
    "ExperimentSpec",
    "CampaignResult",
    "run_experiment",
    "run_campaign",
    "main",
]

COST_TIERS = ("fast", "medium", "slow")


@dataclass(frozen=True)
class ExperimentSpec:
    """One registry entry: the driver plus its catalog metadata."""

    driver: Callable[..., ExperimentResult]
    artifact: str          # paper table/figure/section this regenerates
    cost: str              # "fast" | "medium" | "slow"
    default_seed: int      # the driver's own default, made explicit


#: name -> spec; insertion order is the paper's presentation order.
EXPERIMENTS: dict[str, ExperimentSpec] = {
    "fig2": ExperimentSpec(fig2_exec_types.run, "Fig 2", "fast", 2024),
    "table1": ExperimentSpec(table1_state_machine.run, "TABLE I", "fast", 11),
    "sec3-selection": ExperimentSpec(sec3_selection.run, "Section III-C.1", "fast", 31),
    "fig4": ExperimentSpec(fig4_hash.run, "Fig 4", "fast", 4),
    "table2": ExperimentSpec(table2_counters.run, "TABLE II", "fast", 2024),
    "fig5": ExperimentSpec(fig5_eviction.run, "Fig 5", "medium", 2024),
    "sec4-isolation": ExperimentSpec(sec4_isolation.run, "Section IV-A", "fast", 77),
    "fig7": ExperimentSpec(fig7_collisions.run, "Fig 7", "medium", 900),
    "sec4-transient": ExperimentSpec(sec4_transient.run, "Figs 8-9", "fast", 8),
    "spectre-stl": ExperimentSpec(attack_evals.run_stl, "Section V-B", "slow", 5150),
    "spectre-ctl": ExperimentSpec(attack_evals.run_ctl, "Section V-C.1", "slow", 5151),
    "spectre-ctl-web": ExperimentSpec(attack_evals.run_web, "Section V-C.2", "slow", 5152),
    "attack-comparison": ExperimentSpec(attack_evals.run_all, "Section V", "slow", 5150),
    "fig11": ExperimentSpec(fig11_fingerprint.run, "Fig 11", "slow", 7),
    "fig12": ExperimentSpec(fig12_ssbd_overhead.run, "Fig 12", "fast", 0),
    "table3": ExperimentSpec(table3_platforms.run, "TABLE III", "slow", 1900),
    "table4": ExperimentSpec(table4_comparison.run, "TABLE IV", "medium", 4000),
    "sec6-mitigations": ExperimentSpec(sec6_mitigations.run, "Section VI", "slow", 616),
    "covert-channel": ExperimentSpec(
        sec5_extensions.run_covert_channel, "Section IV-D", "medium", 42
    ),
    "stl-inplace": ExperimentSpec(
        sec5_extensions.run_stl_inplace, "Section V-B", "slow", 24
    ),
    "address-leak": ExperimentSpec(
        sec5_extensions.run_address_leak, "Section V-D", "medium", 808
    ),
    "channel-capacity": ExperimentSpec(
        attack_e2e.run_capacity, "Section IV-D", "medium", 713
    ),
    "stl-extraction": ExperimentSpec(
        attack_e2e.run_extraction, "Section V-B", "slow", 2024
    ),
    "aslr-derand": ExperimentSpec(
        attack_e2e.run_aslr, "Section V-D", "medium", 4096
    ),
    "robustness-channel": ExperimentSpec(
        robustness.run_channel, "Section IV-D", "medium", 2601
    ),
    "robustness-extraction": ExperimentSpec(
        robustness.run_extraction, "Section V-B", "slow", 2024
    ),
    "scan-crossval": ExperimentSpec(
        scan_crossval.run, "Section VI (tooling)", "medium", 902
    ),
}

#: Default selection: everything that completes within a couple minutes.
QUICK_SET = [name for name, spec in EXPERIMENTS.items() if spec.cost != "slow"]


def _spec(name: str) -> ExperimentSpec:
    try:
        return EXPERIMENTS[name]
    except KeyError:
        raise UnknownExperimentError(name, known=list(EXPERIMENTS)) from None


def effective_seed(name: str, seed: int | None = None) -> int:
    """The seed experiment ``name`` actually runs with.

    ``seed`` overrides; None falls back to the driver's published default
    (part of the registry so cache keys are stable and documented).
    """
    return _spec(name).default_seed if seed is None else seed


def run_experiment(name: str, seed: int | None = None) -> ExperimentResult:
    """Run one experiment driver synchronously and return its result.

    Raises :class:`repro.errors.UnknownExperimentError` for names not in
    the registry — never ``SystemExit``; the CLI owns exit codes.
    """
    spec = _spec(name)
    return spec.driver(seed=effective_seed(name, seed))


def _execute(
    name: str,
    seed: int | None,
    stable_meta: bool = False,
    metrics: bool = False,
) -> dict[str, Any]:
    """Worker entry point: run one experiment, return the artifact dict.

    Runs in the supervised pool processes (and inline for plain serial
    runs, so both paths produce identical JSON-normalized results).  The
    dict form crosses the process boundary instead of the dataclass so a
    worker can never ship cells the artifact layer would not round-trip.
    ``stable_meta`` zeroes the volatile run metadata (wall time, worker
    pid) so artifacts and manifests become byte-comparable across runs —
    the mode the chaos/resume convergence checks rely on.  ``metrics``
    attaches this task's telemetry-registry delta (counters/histograms
    driven by simulated quantities, so the rollup is exactly as
    deterministic as the result rows).
    """
    from repro.telemetry import registry

    started = time.perf_counter()
    before = registry().snapshot() if metrics else None
    result = run_experiment(name, seed)
    result.seed = effective_seed(name, seed)
    if metrics:
        result.telemetry = registry().delta_since(before)
    if stable_meta:
        result.wall_time_s = 0.0
        result.worker = "-"
    else:
        result.wall_time_s = round(time.perf_counter() - started, 3)
        result.worker = f"pid:{os.getpid()}"
    return result.to_dict()


def _execute_task(payload: dict) -> dict[str, Any]:
    """Supervised-pool adapter around :func:`_execute` (payload dict in)."""
    return _execute(
        payload["name"],
        payload["seed"],
        payload["stable_meta"],
        payload.get("metrics", False),
    )


class CampaignResult(list):
    """Completed results in request order, plus campaign telemetry.

    A list of :class:`ExperimentResult` (failed/unfinished names are
    absent — ``completed_names`` is the parallel name list), with the
    structured failures, quarantine count and resume statistics the
    manifest also records.
    """

    def __init__(
        self,
        results: Sequence[ExperimentResult] = (),
        *,
        names: Sequence[str] = (),
        failures: Sequence[TaskFailure] = (),
        quarantined: int = 0,
        resumed: int = 0,
        retried: int = 0,
    ) -> None:
        super().__init__(results)
        self.completed_names = list(names)
        self.failures = list(failures)
        self.quarantined = quarantined
        self.resumed = resumed
        self.retried = retried


def _recover_checkpoint(
    json_dir: str | Path,
    names: Sequence[str],
    seed: int | None,
    keys: dict[str, str],
) -> tuple[dict[str, ExperimentResult], int]:
    """Load completed entries from a previous campaign's checkpoint.

    Resume trusts only what re-validates: a truncated/corrupt manifest is
    quarantined (never deleted) and the per-experiment artifacts are then
    consulted directly; an artifact only counts when it parses and its
    recorded seed matches the current run, and when a readable manifest
    is present its ``cache_key`` must match too (so results from another
    model/version are re-run, not resumed).
    """
    directory = Path(json_dir)
    recovered: dict[str, ExperimentResult] = {}
    quarantined = 0
    listed: dict[str, dict] | None = None
    if (directory / MANIFEST_NAME).exists():
        try:
            manifest = read_manifest(directory)
            listed = {
                entry["name"]: entry
                for entry in manifest.get("experiments", [])
                if entry.get("status", "ok") == "ok" and "name" in entry
            }
        except ArtifactError as exc:
            if quarantine(directory, directory / MANIFEST_NAME,
                          f"unreadable checkpoint manifest: {exc}"):
                quarantined += 1
            listed = None
    for name in names:
        if listed is not None:
            entry = listed.get(name)
            if entry is None or entry.get("cache_key") != keys[name]:
                continue
        path = artifact_path(directory, name)
        if not path.exists():
            continue
        try:
            result = read_artifact(path)
        except ArtifactError as exc:
            if quarantine(directory, path, f"unreadable artifact: {exc}"):
                quarantined += 1
            continue
        if result.seed != effective_seed(name, seed):
            continue
        recovered[name] = result
    return recovered, quarantined


def run_campaign(
    names: Sequence[str],
    *,
    jobs: int = 1,
    seed: int | None = None,
    use_cache: bool = True,
    cache_dir: str | Path = DEFAULT_CACHE_DIR,
    json_dir: str | Path | None = None,
    progress: Callable[[str], None] | None = None,
    timeout: float | None = None,
    retries: int = DEFAULT_RETRIES,
    resume: bool = False,
    chaos: str | None = None,
    stable_meta: bool = False,
    grace_s: float = DEFAULT_GRACE_S,
    metrics: bool = False,
) -> CampaignResult:
    """Run a set of experiments under the supervised campaign runtime.

    Returns completed results in ``names`` order regardless of completion
    order; tasks that exhaust ``retries`` become :class:`TaskFailure`
    entries on the returned :class:`CampaignResult` (and in the manifest)
    instead of aborting the campaign.  Unknown names raise
    :class:`UnknownExperimentError` before any work is scheduled.

    With ``json_dir`` the manifest is rewritten atomically after every
    completion, so the campaign is checkpointed at all times; ``resume``
    skips entries the checkpoint already completed.  On SIGINT/SIGTERM
    in-flight tasks are drained for ``grace_s`` seconds, the checkpoint
    is written, and :class:`repro.errors.CampaignInterrupted` is raised.
    ``chaos`` arms the test-only fault injector
    (:mod:`repro.runtime.chaos`).  ``progress`` (if given) receives one
    human-readable line per scheduling event.  ``metrics`` attaches each
    task's telemetry rollup to its artifact and a merged rollup to the
    manifest; it disables the result cache for the run (cached results
    carry no telemetry, and mixing instrumented with cached rows would
    make the manifest rollup lie about coverage).
    """
    for name in names:
        _spec(name)
    if resume and json_dir is None:
        raise ConfigError("--resume requires --json DIR (the checkpoint lives there)")
    if metrics:
        use_cache = False
    say = progress or (lambda line: None)
    cache = ResultCache(cache_dir) if use_cache else None
    keys = {name: cache_key(name, effective_seed(name, seed)) for name in names}

    completed: dict[str, ExperimentResult] = {}
    failures: list[TaskFailure] = []
    quarantined = 0
    resumed = 0

    if resume:
        recovered, quarantined = _recover_checkpoint(json_dir, names, seed, keys)
        for name, result in recovered.items():
            completed[name] = result
            say(f"{name}: resumed from checkpoint")
        resumed = len(recovered)

    for name in names:
        if name in completed or cache is None:
            continue
        cached = cache.get(keys[name])
        if cached is not None:
            completed[name] = cached
            say(f"{name}: cache hit ({keys[name][:12]})")

    def _checkpoint(interrupted: bool = False) -> Path | None:
        if json_dir is None:
            return None
        entries: list[dict[str, Any]] = []
        for name in names:
            if name in completed:
                result = completed[name]
                entries.append(
                    {
                        "name": name,
                        "seed": result.seed,
                        "wall_time_s": result.wall_time_s,
                        "worker": result.worker,
                        "cache_hit": result.cache_hit,
                        "cache_key": keys[name],
                        "status": "ok",
                    }
                )
            else:
                failure = next((f for f in failures if f.task == name), None)
                if failure is not None:
                    entries.append(
                        {
                            "name": name,
                            "cache_key": keys[name],
                            "status": "failed",
                            "failure": failure.to_dict(),
                        }
                    )
        extra: dict[str, Any] = {}
        if metrics:
            from repro.telemetry import merge_snapshots

            extra["metrics"] = merge_snapshots(
                [
                    result.telemetry
                    for result in completed.values()
                    if result.telemetry is not None
                ]
            )
        return write_manifest(
            json_dir,
            entries,
            jobs=jobs,
            cached=sum(r.cache_hit for r in completed.values()),
            version=_version(),
            failures=[f.to_dict() for f in failures],
            interrupted=interrupted,
            quarantined=quarantined + (cache.quarantined if cache else 0),
            **extra,
        )

    if json_dir is not None:
        for name in names:
            if name in completed:
                write_artifact(completed[name], json_dir, name)
        _checkpoint()

    def on_result(name: str, result: ExperimentResult) -> None:
        completed[name] = result
        if cache is not None:
            cache.put(keys[name], result)
        if json_dir is not None:
            write_artifact(result, json_dir, name)
            _checkpoint()
        say(f"{name}: completed in {result.wall_time_s:.1f}s [{result.worker}]")

    pending = [name for name in names if name not in completed]
    interrupted = False
    chaos_plan = ChaosPlan.from_spec(chaos) if chaos else None
    try:
        if pending:
            report = run_supervised(
                [
                    (
                        name,
                        {
                            "name": name,
                            "seed": seed,
                            "stable_meta": stable_meta,
                            "metrics": metrics,
                        },
                    )
                    for name in pending
                ],
                _execute_task,
                jobs=jobs,
                timeout=timeout,
                retries=retries,
                batch=1,  # experiments are heavy and heterogeneous
                chaos=chaos_plan,
                validate=ExperimentResult.from_dict,
                on_result=on_result,
                progress=say,
                grace_s=grace_s,
            )
            failures.extend(report.failures)
            interrupted = report.interrupted
            retried = report.retried
        else:
            retried = 0
    finally:
        if chaos_plan is not None:
            chaos_plan.cleanup()

    checkpoint_path = _checkpoint(interrupted=interrupted)
    campaign = CampaignResult(
        [completed[name] for name in names if name in completed],
        names=[name for name in names if name in completed],
        failures=failures,
        quarantined=quarantined + (cache.quarantined if cache else 0),
        resumed=resumed,
        retried=retried,
    )
    if interrupted:
        raise CampaignInterrupted(
            f"campaign interrupted with {len(campaign)}/{len(names)} "
            f"experiment(s) checkpointed",
            partial=campaign,
            checkpoint=checkpoint_path,
        )
    return campaign


def _version() -> str:
    from repro import __version__

    return __version__


class _UsageError(Exception):
    """Bad CLI usage (not an unknown experiment); exits 2 like argparse."""


def _select(args: argparse.Namespace) -> list[str]:
    names = list(args.names) or (list(EXPERIMENTS) if args.all else list(QUICK_SET))
    if args.cost:
        tiers = {tier.strip() for tier in args.cost.split(",")}
        unknown = tiers - set(COST_TIERS)
        if unknown:
            raise _UsageError(
                f"unknown cost tier(s): {', '.join(sorted(unknown))}; "
                f"choose from {', '.join(COST_TIERS)}"
            )
        names = [name for name in names if EXPERIMENTS[name].cost in tiers]
    return names


def main(argv: list[str] | None = None) -> int:
    parser = build_parser(
        "repro-experiments",
        "Reproduce the paper's tables and figures on the simulator.",
    )
    parser.add_argument("names", nargs="*", help="experiments to run")
    parser.add_argument("--list", action="store_true", help="list experiments")
    parser.add_argument("--all", action="store_true", help="run everything")
    parser.add_argument(
        "--jobs", "-j", type=int, default=1, metavar="N",
        help="worker processes (default 1 = serial)",
    )
    parser.add_argument(
        "--json", metavar="DIR", default=None,
        help="write per-experiment JSON artifacts and a campaign manifest",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="override every driver's default seed",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="always re-run; do not read or write the result cache",
    )
    parser.add_argument(
        "--cache-dir", default=DEFAULT_CACHE_DIR, metavar="DIR",
        help=f"result cache location (default {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--cost", default=None, metavar="TIERS",
        help="filter the selection by cost tier(s), e.g. fast or fast,medium",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-experiment deadline; a hung worker is killed and retried",
    )
    parser.add_argument(
        "--retries", type=int, default=DEFAULT_RETRIES, metavar="N",
        help=f"retry budget per experiment after a crash/timeout/error "
             f"(default {DEFAULT_RETRIES}, deterministic backoff)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="skip experiments already completed in the --json DIR checkpoint "
             "(after a crash or Ctrl-C)",
    )
    parser.add_argument(
        "--stable-meta", action="store_true",
        help="zero volatile run metadata (wall times, worker pids) so "
             "artifacts and manifests are byte-comparable across runs",
    )
    parser.add_argument(
        "--metrics", action="store_true",
        help="attach per-task telemetry rollups (pipeline counters and "
             "histograms) to artifacts and a merged rollup to the "
             "manifest; implies --no-cache",
    )
    parser.add_argument(
        "--chaos", default=os.environ.get(CHAOS_ENV_VAR), metavar="SPEC",
        help="self-test: inject runtime faults, e.g. "
             "'crash@fig4,hang@table1,corrupt@fig2,interrupt@fig5' "
             f"(default from ${CHAOS_ENV_VAR})",
    )
    args = parser.parse_args(argv)

    if args.list:
        for name, spec in EXPERIMENTS.items():
            print(f"{name:20s} {spec.artifact:18s} [{spec.cost}]")
        return exitcodes.EXIT_OK

    try:
        names = _select(args)
        if args.resume and args.json is None:
            raise _UsageError("--resume requires --json DIR")
        started = time.perf_counter()
        results = run_campaign(
            names,
            jobs=max(1, args.jobs),
            seed=args.seed,
            use_cache=not args.no_cache,
            cache_dir=args.cache_dir,
            json_dir=args.json,
            progress=lambda line: print(f"  .. {line}", file=sys.stderr),
            timeout=args.timeout,
            retries=max(0, args.retries),
            resume=args.resume,
            chaos=args.chaos,
            stable_meta=args.stable_meta,
            metrics=args.metrics,
        )
    except (UnknownExperimentError, ConfigError, _UsageError) as exc:
        print(f"repro-experiments: {exc}", file=sys.stderr)
        return exitcodes.EXIT_USAGE
    except CampaignInterrupted as exc:
        print(f"repro-experiments: {exc}", file=sys.stderr)
        print(
            f"repro-experiments: checkpoint written to {args.json}; "
            f"re-run with --resume --json {args.json} to continue",
            file=sys.stderr,
        )
        return exitcodes.EXIT_INTERRUPTED

    for name, result in zip(results.completed_names, results):
        print(result.render())
        suffix = " (cached)" if result.cache_hit else ""
        print(f"[{name} completed in {result.wall_time_s:.1f}s{suffix}]")
        print()
    for failure in results.failures:
        print(
            f"FAILED {failure.task}: {failure.kind} after "
            f"{failure.attempts} attempt(s) — {failure.message}"
        )
    cached = sum(result.cache_hit for result in results)
    extras = ""
    if results.failures:
        extras += f", {len(results.failures)} failed"
    if results.resumed:
        extras += f", {results.resumed} resumed"
    if results.quarantined:
        extras += f", {results.quarantined} corrupt file(s) quarantined"
    print(
        f"campaign: {len(results)} experiments, {cached} from cache{extras}, "
        f"{time.perf_counter() - started:.1f}s wall with --jobs {max(1, args.jobs)}"
    )
    return exitcodes.EXIT_FAILURES if results.failures else exitcodes.EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
