"""The differential leakage oracle (AMuLeT-style two-fill testing).

An oracle program (:func:`repro.fuzz.gen.oracle_program`) is built so its
*architectural* results never depend on the initial data-buffer contents
— every tracked-register load is covered by a program-written store.  The
buffer fill is therefore a pure **secret**: the only way its bytes can
influence anything is through transient execution (a bypassing load
reading stale data, a wrong-path gadget).

The oracle runs each program twice on identical fresh machines with two
different secret fills and compares:

* the architectural results (tracked registers) — these MUST be equal;
  a difference is an oracle-invariant violation reported loudly as
  ``architectural-secret-dependence``;
* the microarchitectural observations — cache-line residency over the
  data buffer, PMC deltas, rollback counts, execution-type traces and
  total cycles.  A difference means the secret left a trace an attacker
  could read: a ``leak`` finding.

Run per mitigation, the oracle doubles as a countermeasure tester: leaks
are *expected* under ``none`` (that is the paper's attack), and any leak
under ``ssbd`` or ``fence`` is a mitigation regression — the condition
``make fuzz-smoke`` gates on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core.config import CpuModel
from repro.fuzz.compare import Divergence, compare_architectural
from repro.fuzz.gen import BUF_BYTES, REGS
from repro.fuzz.harness import DEFAULT_FILL, Execution, execute_program, resolve_model
from repro.mem.hierarchy import CacheLevel
from repro.osm.address_space import Perm

__all__ = [
    "CACHE_LINE",
    "Observation",
    "OracleReport",
    "secret_fills",
    "observe_program",
    "observation_diff",
    "leak_check_instructions",
]

CACHE_LINE = 64

#: At most this many differing cache-line offsets are recorded per diff.
_MAX_LINE_DIFFS = 24


def secret_fills(seed: int) -> tuple[bytes, bytes]:
    """Two deterministic, distinct secret fills for one oracle case."""
    fill_a = random.Random(f"repro-fuzz-secret-{seed}-a").randbytes(BUF_BYTES)
    fill_b = random.Random(f"repro-fuzz-secret-{seed}-b").randbytes(BUF_BYTES)
    return fill_a, fill_b


@dataclass(frozen=True)
class Observation:
    """Everything an attacker could observe about one run."""

    status: str
    cycles: int
    rollbacks: int
    retired: int
    pmc: dict[str, int]
    #: One token per resolved store-load interaction, in order.
    exec_types: tuple[str, ...]
    #: data-buffer byte offset -> cache level holding that line.
    cached_lines: dict[int, str]


def observe_program(
    instructions: list,
    *,
    seed: int,
    model: CpuModel | str | None = None,
    mitigation: str = "none",
    fill: bytes = DEFAULT_FILL,
) -> tuple[dict[str, int], Observation]:
    """Run a program on the pipeline and collect (arch regs, observation)."""
    execution = execute_program(
        instructions, seed=seed, model=model, mitigation=mitigation,
        fill=fill, use_pipeline=True,
    )
    return execution.regs, _observation_of(execution)


def _observation_of(execution: Execution) -> Observation:
    machine = execution.machine
    hierarchy = machine.core.hierarchy
    cached: dict[int, str] = {}
    for offset in range(0, BUF_BYTES, CACHE_LINE):
        paddr = machine.kernel.translate(
            execution.process, execution.buf + offset, Perm.R
        )
        level = hierarchy.probe_level(paddr)
        if level is not CacheLevel.MEMORY:
            cached[offset] = level.value
    result = execution.result
    return Observation(
        status=execution.status,
        cycles=result.cycles if result is not None else -1,
        rollbacks=result.rollbacks if result is not None else -1,
        retired=result.retired if result is not None else -1,
        pmc=machine.core.thread(0).pmc.snapshot(),
        exec_types=tuple(
            f"{event.exec_type.name}:{event.store_ipa:#x}>{event.load_ipa:#x}"
            for event in (result.events if result is not None else [])
        ),
        cached_lines=cached,
    )


def observation_diff(a: Observation, b: Observation) -> dict:
    """JSON-ready summary of how two observations differ (empty = equal)."""
    diff: dict = {}
    if a.status != b.status:
        diff["status"] = [a.status, b.status]
    for name in ("cycles", "rollbacks", "retired"):
        va, vb = getattr(a, name), getattr(b, name)
        if va != vb:
            diff[name] = [va, vb]
    pmc = {
        event: [a.pmc.get(event, 0), b.pmc.get(event, 0)]
        for event in sorted(set(a.pmc) | set(b.pmc))
        if a.pmc.get(event, 0) != b.pmc.get(event, 0)
    }
    if pmc:
        diff["pmc"] = pmc
    if a.exec_types != b.exec_types:
        first = next(
            (
                index
                for index, (ta, tb) in enumerate(zip(a.exec_types, b.exec_types))
                if ta != tb
            ),
            min(len(a.exec_types), len(b.exec_types)),
        )
        diff["exec_types"] = {
            "lengths": [len(a.exec_types), len(b.exec_types)],
            "first_difference": first,
        }
    if a.cached_lines != b.cached_lines:
        offsets = sorted(
            offset
            for offset in set(a.cached_lines) | set(b.cached_lines)
            if a.cached_lines.get(offset) != b.cached_lines.get(offset)
        )
        diff["cached_lines"] = {
            "differing": len(offsets),
            "offsets": offsets[:_MAX_LINE_DIFFS],
        }
    return diff


@dataclass
class OracleReport:
    """Outcome of one two-fill oracle check."""

    generator: str
    seed: int
    blocks: int
    mitigation: str
    model_name: str
    arch_divergence: Divergence | None = None
    observation: dict = field(default_factory=dict)

    @property
    def finding_kind(self) -> str | None:
        """The findings-JSONL kind this report maps to (None = clean)."""
        if self.arch_divergence is not None:
            return "architectural-secret-dependence"
        if self.observation:
            return "leak"
        return None

    def to_detail(self) -> dict:
        detail: dict = {}
        if self.arch_divergence is not None:
            detail["architectural"] = self.arch_divergence.to_detail()
        if self.observation:
            detail["observation"] = self.observation
        return detail


def leak_check_instructions(
    instructions: list,
    *,
    seed: int,
    model: CpuModel | str | None = None,
    mitigation: str = "none",
    generator: str = "custom",
    blocks: int = 0,
) -> OracleReport:
    """Two-fill oracle over an explicit instruction list.

    The one entry point of the oracle: generated cases (``repro-fuzz``),
    shrunk findings and hand-built programs (static cross-validation,
    tests) all face it with their instruction list.
    """
    resolved = resolve_model(model)
    fill_a, fill_b = secret_fills(seed)
    regs_a, obs_a = observe_program(
        instructions, seed=seed, model=resolved, mitigation=mitigation, fill=fill_a
    )
    regs_b, obs_b = observe_program(
        instructions, seed=seed, model=resolved, mitigation=mitigation, fill=fill_b
    )
    arch = compare_architectural(
        instructions,
        regs_a,
        regs_b,
        tracked=REGS,
        outcome_a=obs_a.status,
        outcome_b=obs_b.status,
    )
    return OracleReport(
        generator=generator,
        seed=seed,
        blocks=blocks,
        mitigation=mitigation,
        model_name=resolved.name,
        arch_divergence=arch,
        observation=observation_diff(obs_a, obs_b),
    )
