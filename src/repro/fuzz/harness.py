"""Dual-execution harness: speculative pipeline vs reference interpreter.

Whatever the predictors guessed — bypasses, predictive forwards, branch
mispredictions — every squash must repair architectural state exactly, so
any program must end with identical registers, memory and outcome under
:class:`~repro.cpu.pipeline.Pipeline` and
:class:`~repro.cpu.reference.ReferenceInterpreter`.  This module runs
both executors on identical fresh machines and reports disagreements as
:class:`~repro.fuzz.compare.Divergence` values; the differential tests,
the shrinker and the ``repro-fuzz`` campaign all go through it.

Every check runs under a *mitigation configuration* (``none``, ``ssbd``,
``fence``): mitigations must never change architectural results, so the
same differential contract doubles as a countermeasure correctness test.

:func:`chaos` arms the pipeline's fault-injection hooks
(:data:`repro.cpu.pipeline.CHAOS_HOOKS`) so tests can prove the harness
catches the bug classes it exists for — see
``tests/fuzz/test_harness.py``.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.core.config import CpuModel, default_model, get_model
from repro.cpu import pipeline as pipeline_mod
from repro.cpu.isa import Instruction, Program
from repro.cpu.machine import Machine
from repro.cpu.pipeline import RunResult
from repro.cpu.reference import ReferenceInterpreter
from repro.errors import ConfigError, SegmentationFault, SimulationLimitExceeded
from repro.fuzz.compare import Divergence, compare_architectural, written_registers
from repro.fuzz.corpus import CorpusEntry
from repro.fuzz.gen import BUF_BYTES, BUF_PAGES, build_program
from repro.mitigations import check_mitigation
from repro.mitigations.fences import fence_after_stores
from repro.osm.process import Process
from repro.telemetry.metrics import registry

__all__ = [
    "CHAOS_HOOK_NAMES",
    "DEFAULT_FILL",
    "Execution",
    "DualReport",
    "chaos",
    "execute_program",
    "run_dual",
    "check_case",
    "check_entry",
]

#: Hooks understood by :func:`chaos` (see ``repro.cpu.pipeline.CHAOS_HOOKS``).
CHAOS_HOOK_NAMES = ("skip-register-repair", "skip-store-squash")

#: The classic fill the original differential tests used; the pinned
#: regression seeds were found against exactly these buffer contents.
DEFAULT_FILL = bytes(range(256)) * (BUF_BYTES // 256)

_MAX_STEPS = 400_000


@contextmanager
def chaos(*hooks: str):
    """Temporarily arm pipeline fault-injection hooks (test-only).

    The named squash-repair steps are disabled for the duration of the
    ``with`` block — in this process only; campaign workers re-arm the
    hook themselves from the task description.
    """
    unknown = set(hooks) - set(CHAOS_HOOK_NAMES)
    if unknown:
        raise ConfigError(
            f"unknown chaos hook(s): {', '.join(sorted(unknown))}; "
            f"known: {', '.join(CHAOS_HOOK_NAMES)}"
        )
    added = [hook for hook in hooks if hook not in pipeline_mod.CHAOS_HOOKS]
    pipeline_mod.CHAOS_HOOKS.update(hooks)
    try:
        yield
    finally:
        for hook in added:
            pipeline_mod.CHAOS_HOOKS.discard(hook)


def resolve_model(model: CpuModel | str | None) -> CpuModel:
    """Accept a :class:`CpuModel`, a TABLE III platform name, or None."""
    if model is None:
        return default_model()
    if isinstance(model, CpuModel):
        return model
    return get_model(model)


def apply_mitigation(
    instructions: list[Instruction], mitigation: str
) -> list[Instruction]:
    """Program-level part of a mitigation (``fence`` inserts fences)."""
    check_mitigation(mitigation)
    if mitigation == "fence":
        return fence_after_stores(instructions)
    return list(instructions)


@dataclass
class Execution:
    """One executor's run of one program on a fresh machine."""

    status: str                     # "ok" | "fault:<description>" | "limit"
    regs: dict[str, int]
    memory: bytes
    machine: Machine
    process: Process
    buf: int
    result: RunResult | None = None  # pipeline runs only


def execute_program(
    instructions: list[Instruction],
    *,
    seed: int,
    model: CpuModel | str | None = None,
    mitigation: str = "none",
    fill: bytes = DEFAULT_FILL,
    use_pipeline: bool = True,
) -> Execution:
    """Run a program on a fresh machine with one executor.

    The machine is seeded with ``seed`` (matching the original
    differential-test convention: machine seed == program seed), the data
    buffer is filled with ``fill``, and the selected mitigation is applied
    — ``ssbd`` at the machine level, ``fence`` as a program transform.
    Faults and step-limit overruns become statuses, not exceptions, so
    comparing two executions always works.
    """
    executor = "pipeline" if use_pipeline else "reference"
    registry().counter(f"fuzz.executions.{executor}").inc()
    mitigated = apply_mitigation(instructions, mitigation)
    machine = Machine(model=resolve_model(model), seed=seed)
    if mitigation == "ssbd":
        machine.core.set_ssbd(True)
    process = machine.kernel.create_process("fuzz")
    buf = machine.kernel.map_anonymous(process, pages=BUF_PAGES)
    if len(fill) != BUF_BYTES:
        raise ConfigError(f"fill must be exactly {BUF_BYTES} bytes")
    machine.kernel.write(process, buf, fill)
    program = machine.load_program(process, Program(mitigated, name="fuzz"))
    regs = {"buf": buf}

    status = "ok"
    final: dict[str, int] = {}
    result: RunResult | None = None
    try:
        if use_pipeline:
            result = machine.run(process, program, regs, max_steps=_MAX_STEPS)
            final = result.regs
        else:
            final = ReferenceInterpreter(machine.kernel, process).run(
                program, regs, max_steps=_MAX_STEPS
            )
    except SegmentationFault as fault:
        status = f"fault:{fault}"
    except SimulationLimitExceeded:
        status = "limit"
    memory = machine.kernel.read(process, buf, BUF_BYTES)
    return Execution(
        status=status,
        regs=final,
        memory=memory,
        machine=machine,
        process=process,
        buf=buf,
        result=result,
    )


@dataclass
class DualReport:
    """Outcome of one dual execution: the two runs plus their diff."""

    instructions: list[Instruction]
    seed: int
    mitigation: str
    model_name: str
    pipeline: Execution
    reference: Execution
    divergence: Divergence | None = field(default=None)


def run_dual(
    instructions: list[Instruction],
    *,
    seed: int,
    model: CpuModel | str | None = None,
    mitigation: str = "none",
) -> DualReport:
    """Execute one program on both executors and compare architecturally.

    Every register the program writes is compared (the shared comparator
    removes ``Rdpru`` destinations).
    """
    resolved = resolve_model(model)
    pipe = execute_program(
        instructions, seed=seed, model=resolved, mitigation=mitigation,
        use_pipeline=True,
    )
    ref = execute_program(
        instructions, seed=seed, model=resolved, mitigation=mitigation,
        use_pipeline=False,
    )
    divergence = compare_architectural(
        instructions,
        pipe.regs,
        ref.regs,
        mem_a=pipe.memory,
        mem_b=ref.memory,
        tracked=sorted(written_registers(instructions)),
        outcome_a=pipe.status,
        outcome_b=ref.status,
    )
    registry().counter("fuzz.dual_runs").inc()
    if divergence is not None:
        registry().counter("fuzz.divergences").inc()
    return DualReport(
        instructions=list(instructions),
        seed=seed,
        mitigation=mitigation,
        model_name=resolved.name,
        pipeline=pipe,
        reference=ref,
        divergence=divergence,
    )


def check_case(
    generator: str,
    seed: int,
    blocks: int,
    *,
    mitigation: str = "none",
) -> DualReport:
    """Generate the ``(generator, seed, blocks)`` program and dual-run it."""
    instructions = build_program(generator, seed, blocks)
    return run_dual(instructions, seed=seed, mitigation=mitigation)


def check_entry(entry: CorpusEntry, *, mitigation: str = "none") -> DualReport:
    """Replay one corpus entry through the dual-execution harness."""
    return check_case(
        entry.generator, entry.seed, entry.blocks, mitigation=mitigation
    )
