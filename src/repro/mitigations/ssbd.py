"""SSBD — Speculative Store Bypass Disable (paper Section VI-A).

Setting SPEC_CTRL bit 2 serializes every load behind preceding stores:
the predictors pin to the Block state (``phi(n) = E``, ``phi(a) = A``),
no training occurs, no timing differences remain, and no exploitable
transient window exists.  The cost is the Fig 12 overhead this module
measures on the SPEC2017-like workloads.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cpu.machine import Machine
from repro.workloads.spec2017 import SPEC2017, WorkloadSpec, build_workload, prefill

__all__ = ["WorkloadTiming", "measure_workload", "ssbd_overhead"]


@dataclass(frozen=True)
class WorkloadTiming:
    """Cycles for one workload with SSBD off and on."""

    name: str
    baseline_cycles: int
    ssbd_cycles: int

    @property
    def overhead(self) -> float:
        """Relative slowdown: (ssbd - baseline) / baseline."""
        if self.baseline_cycles == 0:
            return 0.0
        return (self.ssbd_cycles - self.baseline_cycles) / self.baseline_cycles


def measure_workload(
    spec: WorkloadSpec,
    operations: int = 400,
    repetitions: int = 3,
    seed: int = 0,
) -> WorkloadTiming:
    """Run one workload with SSBD off, then on; fresh machine each mode
    so cache and predictor state are comparable.

    The first repetition warms caches and trains predictors (as SPEC's
    measured iterations would be warm); timing sums the remaining runs.
    """

    def run_mode(ssbd: bool) -> int:
        machine = Machine(seed=seed)
        machine.core.set_ssbd(ssbd)
        process = machine.kernel.create_process(f"spec-{spec.name}")
        data = machine.kernel.map_anonymous(process, pages=spec.footprint_pages)
        prefill(machine.kernel, process, data, spec.footprint_pages, seed)
        program = machine.load_program(
            process, build_workload(spec, data, operations, seed)
        )
        machine.run(process, program, max_steps=1_000_000)  # warm-up
        total = 0
        for _ in range(repetitions):
            total += machine.run(process, program, max_steps=1_000_000).cycles
        return total

    return WorkloadTiming(
        name=spec.name,
        baseline_cycles=run_mode(ssbd=False),
        ssbd_cycles=run_mode(ssbd=True),
    )


def ssbd_overhead(
    operations: int = 400,
    repetitions: int = 3,
    seed: int = 0,
) -> dict[str, WorkloadTiming]:
    """The Fig 12 sweep over every benchmark."""
    return {name: measure_workload(SPEC2017[name], operations, repetitions, seed)
            for name in SPEC2017}
