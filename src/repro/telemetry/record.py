"""Record traces of catalog experiments, fuzz cases, and attack demos.

Three target grammars, shared by ``repro-trace record`` and the
``--trace-findings`` path in ``repro-fuzz``:

* ``<experiment>`` — any name from the ``repro-experiments`` catalog
  (the driver's own machines pick the tracer up at construction);
* ``case:<generator>:<seed>:<blocks>`` — a fuzz-corpus style program run
  through the pipeline executor (honours ``--mitigation``/``--model``);
* ``stl`` — a compact Spectre-STL gadget driver (Listing 2): mistrain
  the PSFP with aliasing victim calls, then one attack call with the
  out-of-bounds index.  Recording it under ``none`` and ``ssbd`` and
  diffing the traces shows the exact event where the mitigation bites —
  the triage workflow docs/observability.md walks through.

Every recording runs in a deterministic context (fixed seeds, simulated
time only), so the same target records byte-identical traces on every
run and under any ``--jobs`` fan-out; ``make trace-smoke`` enforces it.
"""

from __future__ import annotations

from functools import partial
from pathlib import Path
from typing import Any, Sequence

from ..fuzz.gen import parse_case
from . import recording
from .sinks import JsonlSink, trace_header

__all__ = [
    "RECORD_BUILTINS",
    "record_target",
    "record_many",
    "target_slug",
    "trace_path",
]

#: Non-experiment targets understood by :func:`record_target`.
RECORD_BUILTINS = ("stl",)

#: Mistraining calls before the attack call in the ``stl`` demo.
_STL_TRAINING_RUNS = 6


def target_slug(target: str, mitigation: str = "none") -> str:
    """Filesystem-safe name for one recording (unique per mitigation)."""
    base = target.replace(":", "-")
    return f"{base}-{mitigation}" if _mitigation_applies(target) else base


def trace_path(out_dir: str | Path, target: str, mitigation: str = "none") -> Path:
    return Path(out_dir) / f"{target_slug(target, mitigation)}.trace.jsonl"


def _mitigation_applies(target: str) -> bool:
    return target in RECORD_BUILTINS or target.startswith("case:")


def _check_target(target: str) -> None:
    """Raise :class:`~repro.errors.ReproError` (``ConfigError`` or
    ``UnknownExperimentError``) for a target :func:`record_target`
    cannot run, before any recording is scheduled."""
    if target.startswith("case:"):
        parse_case(target)
    elif target not in RECORD_BUILTINS:
        from ..experiments.runner import effective_seed

        effective_seed(target)


def _run_case(
    generator: str, seed: int, blocks: int, model: str | None, mitigation: str
) -> None:
    """Run one generated fuzz program through the pipeline executor."""
    from ..fuzz.gen import build_program
    from ..fuzz.harness import execute_program

    execute_program(
        build_program(generator, seed, blocks),
        seed=seed,
        model=model,
        mitigation=mitigation,
        use_pipeline=True,
    )


def _run_stl_demo(seed: int, mitigation: str) -> None:
    """Drive the Spectre-STL gadget: mistrain, then attack once.

    Mistraining runs call the victim with ``idx = 0`` so the delayed
    store aliases the gadget's first load (type G then A events, walking
    the pair toward PSF-enabled).  The attack call uses the out-of-bounds
    index: unmitigated, the load predictively forwards the attacker value
    ``x`` (stld-forward, then a type-D squash once the store address
    resolves); under SSBD the predictor is pinned in Block and the same
    load stalls (stld-stall, type A/E) — the first trace divergence.
    """
    from ..attacks.victim_gadgets import STL_ATTACK_IDX, StlVictim
    from ..cpu.machine import Machine

    machine = Machine(seed=seed)
    if mitigation == "ssbd":
        machine.core.set_ssbd(True)
    elif mitigation != "none":
        raise ValueError(f"stl target supports mitigations none/ssbd, not {mitigation!r}")
    victim = StlVictim(machine, machine.kernel.create_process("victim"), secret_pages=0)
    victim.set_idx(0)
    for _ in range(_STL_TRAINING_RUNS):
        victim.call(0x40)
    victim.set_idx(STL_ATTACK_IDX)
    victim.call(0x41)


def record_target(
    target: str,
    out_dir: str | Path,
    *,
    seed: int | None = None,
    mitigation: str = "none",
    model: str | None = None,
) -> dict[str, Any]:
    """Record one target's trace to ``out_dir``; returns a result row.

    The returned dict (``target``, ``path``, ``events``, ``seed``) is
    JSON-safe and deterministic, so campaign fan-out over targets can be
    compared across ``--jobs`` like any other artifact.
    """
    path = trace_path(out_dir, target, mitigation)
    context: dict[str, Any] = {"target": target}
    if _mitigation_applies(target):
        context["mitigation"] = mitigation

    if target.startswith("case:"):
        generator, case_seed, blocks = parse_case(target)
        used_seed = case_seed if seed is None else seed
        context.update(generator=generator, seed=used_seed, blocks=blocks)
        if model is not None:
            context["model"] = model
        run = partial(_run_case, generator, used_seed, blocks, model, mitigation)
    elif target in RECORD_BUILTINS:
        used_seed = 1337 if seed is None else seed
        context["seed"] = used_seed
        run = partial(_run_stl_demo, used_seed, mitigation)
    else:
        from ..experiments.runner import effective_seed, run_experiment

        used_seed = effective_seed(target, seed)  # raises on unknown names
        context["seed"] = used_seed
        run = partial(run_experiment, target, used_seed)

    with recording(JsonlSink(path, trace_header(**context))) as tracer:
        run()

    return {
        "target": target,
        "path": str(path),
        "events": tracer.events_emitted,
        "seed": used_seed,
    }


def _record_task(payload: dict[str, Any]) -> dict[str, Any]:
    """Supervised-pool worker: record one target (picklable entry point)."""
    return record_target(
        payload["target"],
        payload["out_dir"],
        seed=payload["seed"],
        mitigation=payload["mitigation"],
        model=payload["model"],
    )


def record_many(
    targets: Sequence[str],
    out_dir: str | Path,
    *,
    seed: int | None = None,
    mitigation: str = "none",
    model: str | None = None,
    jobs: int = 1,
    progress=None,
) -> list[dict[str, Any]]:
    """Record several targets, optionally fanned out across processes.

    Each worker records into its own trace file (written atomically), so
    results are byte-identical whatever ``jobs`` is.  Rows come back in
    ``targets`` order.  Every target is checked before any is scheduled.
    """
    from ..runtime.supervisor import run_supervised

    for target in targets:
        _check_target(target)
    tasks = [
        (
            target,
            {
                "target": target,
                "out_dir": str(out_dir),
                "seed": seed,
                "mitigation": mitigation,
                "model": model,
            },
        )
        for target in targets
    ]
    report = run_supervised(tasks, _record_task, jobs=jobs, progress=progress)
    if report.failures:
        first = report.failures[0]
        raise RuntimeError(
            f"recording failed for {len(report.failures)} target(s); "
            f"first: {first.task}: {first.message}"
        )
    return [report.results[target] for target in targets if target in report.results]
