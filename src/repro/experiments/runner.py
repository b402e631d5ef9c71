"""Experiment registry and campaign runner.

``repro-experiments --list`` shows every table/figure reproduction;
``repro-experiments fig2 table1`` runs a selection; no arguments runs
the quick set (everything but the long leak campaigns).

The runner is a campaign engine, not a loop:

* **parallel scheduling** — every driver builds its own ``Machine``, so
  experiments are embarrassingly parallel; ``--jobs N`` fans them out
  across the supervised worker pool
  (:func:`repro.runtime.supervisor.run_supervised`);
* **result cache** — results are content-addressed by (experiment name,
  seed, :class:`CpuModel`, package version) under ``.repro-cache/``;
  unchanged experiments are replayed from disk (``--no-cache`` opts out);
* **JSON artifacts** — ``--json DIR`` writes each result to
  ``DIR/<name>.json`` plus a ``campaign.json`` manifest, the inputs to
  :mod:`repro.experiments.report`, once per campaign.

Rendered output is emitted in request order whatever the completion
order, so ``--jobs 8`` and ``--jobs 1`` print byte-identical reports.
See docs/experiments.md for the full catalog.

Execution is resilient (see docs/resilience.md): workers run under the
supervised pool in :mod:`repro.runtime.supervisor` — per-task
``--timeout`` deadlines, ``--retries`` with deterministic backoff, crash
isolation — every completion is appended to the checkpoint journal
``DIR/campaign.checkpoint.jsonl`` (:mod:`repro.runtime.journal`, the
format ``repro-fuzz`` uses too) so ``--resume`` continues an interrupted
campaign, and tasks that exhaust their retries become structured failure
entries instead of aborting the run.  Work a finished campaign already
did is replayed by the result cache, not by ``--resume``.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.errors import (
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
from repro.experiments.artifacts import CHECKPOINT_NAME, write_artifact, write_manifest
from repro.experiments.base import ExperimentResult
from repro.experiments.cache import DEFAULT_CACHE_DIR, ResultCache, cache_key
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

    @property
    def default_seed(self) -> int:
        """The ``seed=`` default of the driver's own signature."""
        return inspect.signature(self.driver).parameters["seed"].default


#: name -> spec; insertion order is the paper's presentation order.
EXPERIMENTS: dict[str, ExperimentSpec] = {
    "fig2": ExperimentSpec(fig2_exec_types.run, "Fig 2", "fast"),
    "table1": ExperimentSpec(table1_state_machine.run, "TABLE I", "fast"),
    "sec3-selection": ExperimentSpec(sec3_selection.run, "Section III-C.1", "fast"),
    "fig4": ExperimentSpec(fig4_hash.run, "Fig 4", "fast"),
    "table2": ExperimentSpec(table2_counters.run, "TABLE II", "fast"),
    "fig5": ExperimentSpec(fig5_eviction.run, "Fig 5", "medium"),
    "sec4-isolation": ExperimentSpec(sec4_isolation.run, "Section IV-A", "fast"),
    "fig7": ExperimentSpec(fig7_collisions.run, "Fig 7", "medium"),
    "sec4-transient": ExperimentSpec(sec4_transient.run, "Figs 8-9", "fast"),
    "spectre-stl": ExperimentSpec(attack_evals.run_stl, "Section V-B", "slow"),
    "spectre-ctl": ExperimentSpec(attack_evals.run_ctl, "Section V-C.1", "slow"),
    "spectre-ctl-web": ExperimentSpec(attack_evals.run_web, "Section V-C.2", "slow"),
    "attack-comparison": ExperimentSpec(attack_evals.run_all, "Section V", "slow"),
    "fig11": ExperimentSpec(fig11_fingerprint.run, "Fig 11", "slow"),
    "fig12": ExperimentSpec(fig12_ssbd_overhead.run, "Fig 12", "fast"),
    "table3": ExperimentSpec(table3_platforms.run, "TABLE III", "slow"),
    "table4": ExperimentSpec(table4_comparison.run, "TABLE IV", "medium"),
    "sec6-mitigations": ExperimentSpec(sec6_mitigations.run, "Section VI", "slow"),
    "covert-channel": ExperimentSpec(
        sec5_extensions.run_covert_channel, "Section IV-D", "medium"
    ),
    "stl-inplace": ExperimentSpec(
        sec5_extensions.run_stl_inplace, "Section V-B", "slow"
    ),
    "address-leak": ExperimentSpec(
        sec5_extensions.run_address_leak, "Section V-D", "medium"
    ),
    "channel-capacity": ExperimentSpec(
        attack_e2e.run_capacity, "Section IV-D", "medium"
    ),
    "stl-extraction": ExperimentSpec(attack_e2e.run_extraction, "Section V-B", "slow"),
    "aslr-derand": ExperimentSpec(attack_e2e.run_aslr, "Section V-D", "medium"),
    "robustness-channel": ExperimentSpec(
        robustness.run_channel, "Section IV-D", "medium"
    ),
    "robustness-extraction": ExperimentSpec(
        robustness.run_extraction, "Section V-B", "slow"
    ),
    "scan-crossval": ExperimentSpec(
        scan_crossval.run, "Section VI (tooling)", "medium"
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

    ``seed`` overrides; None falls back to the ``seed=`` default of the
    driver's signature, the one place each default seed is written.
    """
    return _spec(name).default_seed if seed is None else seed


def run_experiment(name: str, seed: int | None = None) -> ExperimentResult:
    """Run one experiment driver synchronously and return its result.

    Raises :class:`repro.errors.UnknownExperimentError` for names not in
    the registry — never ``SystemExit``; the CLI owns exit codes.
    """
    spec = _spec(name)
    # The one call that sets every registered driver's ``seed``.
    return spec.driver(seed=effective_seed(name, seed))


def _execute(payload: dict) -> dict[str, Any]:
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
    name, seed = payload["name"], payload["seed"]
    started = time.perf_counter()
    result, telemetry = metered(run_experiment, name, seed, enabled=payload["metrics"])
    result.telemetry = telemetry
    result.seed = effective_seed(name, seed)
    if payload["stable_meta"]:
        result.wall_time_s = 0.0
        result.worker = "-"
    else:
        result.wall_time_s = round(time.perf_counter() - started, 3)
        result.worker = f"pid:{os.getpid()}"
    return result.to_dict()


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


def run_campaign(
    names: Sequence[str],
    *,
    jobs: int = 1,
    seed: int | None = None,
    use_cache: bool = True,
    cache_dir: str | Path = DEFAULT_CACHE_DIR,
    json_dir: str | Path | None = None,
    progress: Callable[[str], None] | None = None,
    resume: bool = False,
    chaos: str | None = None,
    stable_meta: bool = False,
    metrics: bool = False,
    **supervision: Any,
) -> CampaignResult:
    """Run a set of experiments under the supervised campaign runtime.

    Returns completed results in ``names`` order regardless of completion
    order; ``supervision`` (timeout, retries, grace_s) goes to
    :func:`~repro.runtime.supervisor.run_supervised`, and tasks that
    exhaust their retries become :class:`TaskFailure` entries on the
    returned :class:`CampaignResult` (and in the manifest) instead of
    aborting the campaign.  Unknown names raise
    :class:`UnknownExperimentError` before any work is scheduled.

    With ``json_dir`` every completion is appended to the checkpoint
    journal ``<json_dir>/campaign.checkpoint.jsonl``
    (:mod:`repro.runtime.journal`), and ``resume`` replays the journal
    of an interrupted run.  The artifacts and the manifest are written
    once, when the campaign ends or is interrupted.  On SIGINT/SIGTERM
    in-flight tasks are drained into the journal
    and :class:`repro.errors.CampaignInterrupted` is raised.  ``chaos``
    arms the test-only fault injector (:mod:`repro.runtime.chaos`).
    ``progress`` (if given) receives one human-readable line per
    scheduling event.  ``metrics`` attaches each task's telemetry rollup
    to its artifact and a merged rollup to the manifest; it disables the
    result cache for the run (cached results carry no telemetry, and
    mixing instrumented with cached rows would make the manifest rollup
    lie about coverage).
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

    cached: dict[str, ExperimentResult] = {}
    if cache is not None:
        for name in names:
            hit = cache.get(keys[name])
            if hit is not None:
                cached[name] = hit
                say(f"{name}: cache hit ({keys[name][:12]})")

    def on_result(name: str, result: ExperimentResult) -> None:
        if cache is not None:
            cache.put(keys[name], result)
        say(f"{name}: completed in {result.wall_time_s:.1f}s [{result.worker}]")

    # The cache key in each payload binds the journal to seed, model and code.
    tasks = [
        (name, {"name": name, "seed": seed, "stable_meta": stable_meta,
                "metrics": metrics, "cache_key": keys[name]})
        for name in names
    ]
    checkpoint = Path(json_dir) / CHECKPOINT_NAME if json_dir is not None else None
    run = run_journaled(
        tasks,
        _execute,
        checkpoint=checkpoint,
        resume=resume,
        validate=ExperimentResult.from_dict,
        encode=ExperimentResult.to_dict,
        on_result=on_result,
        skip=cached,
        chaos=chaos,
        progress=say,
        jobs=jobs,
        batch=1,  # experiments are heavy and heterogeneous
        **supervision,
    )
    # A journaled result wins over a cache hit: it is what the
    # interrupted run reported, cache_hit stamp included.
    completed = {**cached, **run.results}
    done = [name for name in names if name in completed]
    campaign = CampaignResult(
        [completed[name] for name in done],
        names=done,
        failures=run.report.failures,
        quarantined=run.quarantined + (cache.quarantined if cache else 0),
        resumed=run.resumed,
        retried=run.report.retried,
    )
    if json_dir is not None:
        _write_outputs(json_dir, campaign, keys, jobs=jobs, metrics=metrics,
                       interrupted=run.report.interrupted)
    run.report.raise_if_interrupted(len(campaign), len(names), partial=campaign,
                                    checkpoint=checkpoint)
    return campaign


def _write_outputs(
    json_dir: str | Path,
    campaign: CampaignResult,
    keys: dict[str, str],
    *,
    jobs: int,
    metrics: bool,
    interrupted: bool,
) -> None:
    """Write every completed artifact and the campaign manifest, once."""
    failed = {failure.task: failure for failure in campaign.failures}
    done = dict(zip(campaign.completed_names, campaign))
    entries: list[dict[str, Any]] = []
    for name in keys:
        if name in done:
            result = done[name]
            write_artifact(result, json_dir, name)
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
        elif name in failed:
            entries.append(
                {
                    "name": name,
                    "cache_key": keys[name],
                    "status": "failed",
                    "failure": failed[name].to_dict(),
                }
            )
    extra: dict[str, Any] = {}
    if metrics:
        from repro.telemetry.metrics import merge_snapshots

        extra["metrics"] = merge_snapshots(
            [result.telemetry for result in campaign if result.telemetry is not None]
        )
    write_manifest(
        json_dir,
        entries,
        jobs=jobs,
        cached=sum(result.cache_hit for result in campaign),
        version=_version(),
        failures=[failure.to_dict() for failure in campaign.failures],
        interrupted=interrupted,
        quarantined=campaign.quarantined,
        **extra,
    )


def _version() -> str:
    from repro import __version__

    return __version__


def _select(args: argparse.Namespace) -> list[str]:
    names = list(args.names) or (list(EXPERIMENTS) if args.all else list(QUICK_SET))
    if args.cost:
        tiers = {tier.strip() for tier in args.cost.split(",")}
        unknown = tiers - set(COST_TIERS)
        if unknown:
            raise ConfigError(
                f"unknown cost tier(s): {', '.join(sorted(unknown))}; "
                f"choose from {', '.join(COST_TIERS)}"
            )
        names = [name for name in names if EXPERIMENTS[name].cost in tiers]
    return names


@console_main("repro-experiments")
def main(argv: list[str] | None = None) -> int:
    parser = build_parser(
        "repro-experiments",
        "Reproduce the paper's tables and figures on the simulator.",
    )
    parser.add_argument("names", nargs="*", help="experiments to run")
    parser.add_argument("--list", action="store_true", help="list experiments")
    parser.add_argument("--all", action="store_true", help="run everything")
    parser.add_argument(
        "--json", metavar="DIR", default=None,
        help="write per-experiment JSON artifacts and a campaign manifest; "
             "the checkpoint journal --resume reads lives there too",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="override every driver's default seed",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="always re-run; do not read or write the result cache "
             "(implied by --metrics)",
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
        "--stable-meta", action="store_true",
        help="zero volatile run metadata (wall times, worker pids) so "
             "artifacts and manifests are byte-comparable across runs",
    )
    add_supervision_flags(parser)
    add_resume_flags(parser)
    args = parser.parse_args(argv)

    if args.list:
        for name, spec in EXPERIMENTS.items():
            print(f"{name:20s} {spec.artifact:18s} [{spec.cost}]")
        return exitcodes.EXIT_OK

    names = _select(args)
    started = time.perf_counter()
    pool = supervision(args)
    results = run_campaign(
        names,
        **pool,
        seed=args.seed,
        use_cache=not args.no_cache,
        cache_dir=args.cache_dir,
        json_dir=args.json,
        progress=print_progress,
        resume=args.resume,
        chaos=args.chaos,
        stable_meta=args.stable_meta,
        metrics=args.metrics,
    )

    for name, result in zip(results.completed_names, results):
        print(result.render())
        suffix = " (cached)" if result.cache_hit else ""
        print(f"[{name} completed in {result.wall_time_s:.1f}s{suffix}]")
        print()
    for failure in results.failures:
        print(f"FAILED {failure.task}: {failure.describe()}")
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
        f"{time.perf_counter() - started:.1f}s wall with --jobs {pool['jobs']}"
    )
    return exitcodes.EXIT_FAILURES if results.failures else exitcodes.EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
