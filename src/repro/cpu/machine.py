"""The top-level simulated machine: core + kernel + per-thread pipelines.

This is the facade most experiments use::

    machine = Machine(seed=1)
    victim = machine.kernel.create_process("victim")
    program = machine.load_program(victim, my_program)
    result = machine.run(victim, program, regs={"rdi": buf, "rsi": buf})

``load_program`` maps executable pages for the program, writes its
synthetic machine code into them (so fork/COW and code sliding behave like
they do for real text pages) and returns the program relocated to its
load address.  ``run`` schedules the process on a hardware thread (with
the kernel's context-switch flush semantics) and interprets the program.
"""

from __future__ import annotations

import math

from repro.core.config import CpuModel
from repro.cpu.core import Core
from repro.cpu.isa import Program
from repro.cpu.pipeline import Pipeline, RunResult
from repro.mem.physical import PAGE_SIZE
from repro.osm.address_space import Perm
from repro.osm.kernel import Kernel
from repro.osm.process import Process

__all__ = ["Machine"]


class Machine:
    """One simulated host: a core, a kernel, and per-thread pipelines."""

    def __init__(
        self,
        model: CpuModel | None = None,
        seed: int = 0,
        flush_ssbp_on_switch: bool = False,
        resalt_on_switch: bool = False,
        hash_salt: int = 0,
    ) -> None:
        self.core = Core(model=model, seed=seed, hash_salt=hash_salt)
        self.kernel = Kernel(
            self.core,
            flush_ssbp_on_switch=flush_ssbp_on_switch,
            resalt_on_switch=resalt_on_switch,
        )
        self._pipelines = [
            Pipeline(self.core, thread, self.kernel) for thread in self.core.threads
        ]
        #: Optional :class:`repro.interference.model.InterferenceModel`;
        #: installed via ``InterferenceModel.attach(machine)``, consulted
        #: around every :meth:`run`.
        self.interference = None

    @property
    def noisy(self) -> bool:
        """Whether a non-quiet interference model is attached — the one
        fact the attack stack's hardened protocols select on."""
        model = self.interference
        return model is not None and not model.profile.is_quiet

    def attach_tracer(self, tracer) -> None:
        """Route every pipeline's trace events to ``tracer``.

        Pipelines created while a tracer is active pick it up on their
        own; this hook covers the opposite order (machine built first,
        recording started later).  Pass ``None`` to detach.
        """
        for pipeline in self._pipelines:
            pipeline.attach_tracer(tracer)

    # ------------------------------------------------------------------
    # Program management
    # ------------------------------------------------------------------
    def load_program(self, process: Process, program: Program) -> Program:
        """Map code pages for ``program`` and return it relocated there."""
        pages = max(1, math.ceil(program.byte_size / PAGE_SIZE)) + 1
        base = self.kernel.map_anonymous(process, pages, perms=Perm.RX, kind="code")
        relocated = program.relocate(base)
        self.kernel.write(process, base, relocated.encode(), force=True)
        return relocated

    def place_program(self, process: Process, program: Program, iva: int) -> Program:
        """Relocate ``program`` to an exact IVA inside already-mapped pages
        (the code-sliding primitive) and write its bytes there."""
        relocated = program.relocate(iva)
        self.kernel.write(process, iva, relocated.encode(), force=True)
        return relocated

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def pipeline(self, thread_id: int = 0) -> Pipeline:
        return self._pipelines[thread_id]

    def run(
        self,
        process: Process,
        program: Program,
        regs: dict[str, int] | None = None,
        thread_id: int = 0,
        max_steps: int = 200_000,
    ) -> RunResult:
        """Schedule ``process`` on a hardware thread and run ``program``.

        When an interference model is attached it may inject co-runner
        bursts or a preemption before the run and perturb PMC counts
        after it (its own injected runs are reentrancy-guarded).
        """
        interference = self.interference
        if interference is not None:
            interference.before_run(process, thread_id)
        self.kernel.schedule(process, thread_id)
        result = self._pipelines[thread_id].run(process, program, regs, max_steps)
        if interference is not None:
            interference.after_run(thread_id)
        return result

    def run_smt(
        self,
        jobs: list[tuple[Process, Program, dict[str, int] | None]],
        max_steps: int = 400_000,
    ) -> list[RunResult]:
        """Run one program per SMT thread, interleaved step by step.

        Each job runs on its own hardware thread (job index = thread id):
        private predictors and store queue, but a *shared* cache
        hierarchy and physical memory — the Zen 3 sharing the paper's
        Section IV-A SMT experiment probes.  Round-robin stepping models
        the threads executing concurrently.
        """
        if len(jobs) > len(self.core.threads):
            raise ValueError(
                f"{len(jobs)} jobs but only {len(self.core.threads)} SMT threads"
            )
        states = []
        for thread_id, (process, program, regs) in enumerate(jobs):
            self.kernel.schedule(process, thread_id)
            states.append(self._pipelines[thread_id].begin(process, program, regs))
        live = list(range(len(states)))
        steps = 0
        while live:
            steps += 1
            if steps > max_steps:
                from repro.errors import SimulationLimitExceeded

                raise SimulationLimitExceeded(
                    f"SMT run exceeded {max_steps} interleaved steps"
                )
            for index in list(live):
                if not states[index].step():
                    live.remove(index)
        return [
            self._pipelines[thread_id].finish(state)
            for thread_id, state in enumerate(states)
        ]

    def __repr__(self) -> str:
        return f"Machine(core={self.core!r})"
