"""The interference model: seeded disturbances around every program run.

One model attaches to one :class:`~repro.cpu.machine.Machine` and hooks
its ``run`` facade (the machine calls :meth:`before_run`/:meth:`after_run`
around every scheduled program).  All disturbance decisions come from
one ``random.Random(profile.seed)``, and the simulator is
single-threaded, so a (machine seed, profile) pair produces one exact
disturbance schedule — reruns and ``--jobs`` fan-out are byte-identical.

Mechanisms (all optional, all off in the ``quiet`` preset):

* **SMT co-runner** — a burst of seeded memory ops runs on the sibling
  hardware thread before the victim's run, displacing shared cache
  lines (predictors are SMT-partitioned, so only the cache is shared —
  the Section IV-A finding);
* **preemption** — an interloper process is scheduled onto the *same*
  hardware thread and runs a burst: PSFP is flushed on both switches
  (Vulnerability 1's flush semantics), the interloper's store-to-load
  pairs charge SSBP counters that survive the switch back, and its
  working set displaces cache lines;
* **timer drift/jitter** — a DVFS-style triangular ramp plus per-read
  uniform jitter applied to attacker-visible timer readings (the
  :class:`~repro.attacks.runtime.AttackerStld` measurement path
  composes this with any :class:`~repro.mitigations.secure_timer.
  SecureTimer`);
* **PMC sampling noise** — occasional off-by-one skid on a random PMC
  event counter after a run.
"""

from __future__ import annotations

import random

from repro.cpu.isa import Program
from repro.cpu.machine import Machine
from repro.cpu.pmc import PmcEvent
from repro.errors import ReproError
from repro.interference.corunner import BURST_BUFFER_PAGES, build_burst
from repro.interference.profile import InterferenceProfile
from repro.osm.process import Process
from repro.telemetry.metrics import registry

__all__ = ["InterferenceModel"]

#: Seeded burst variants pre-built per mechanism at attach time: enough
#: variety to spray distinct line/entry sets, bounded so attach cost and
#: code-page usage stay constant.
_BURST_VARIANTS = 8


class InterferenceModel:
    """Disturbance injector attached to one machine."""

    def __init__(self, profile: InterferenceProfile) -> None:
        self.profile = profile
        self.rng = random.Random(profile.seed)
        self.machine: Machine | None = None
        self._active = False  # reentrancy guard: bursts must not recurse
        self._timer_reads = 0
        self._corunner: Process | None = None
        self._interloper: Process | None = None
        self._corunner_bursts: list[tuple[Program, dict[str, int]]] = []
        self._interloper_bursts: list[tuple[Program, dict[str, int]]] = []
        # Event tallies (also mirrored into the telemetry registry).
        self.preemptions = 0
        self.corunner_runs = 0
        self.pmc_perturbations = 0

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------
    def attach(self, machine: Machine) -> "InterferenceModel":
        """Install the model on ``machine`` (one model per machine).

        A quiet profile installs nothing but the (identity) timer, so
        attaching ``quiet`` is a provable no-op: no processes are
        created, no RNG is consumed, and every run behaves exactly as
        on an unattached machine.
        """
        if self.machine is not None:
            raise ReproError("interference model is already attached")
        if getattr(machine, "interference", None) is not None:
            raise ReproError("machine already has an interference model")
        self.machine = machine
        if not self.profile.is_quiet:
            self._build_workloads(machine)
        machine.interference = self
        return self

    def _build_workloads(self, machine: Machine) -> None:
        profile = self.profile
        kernel = machine.kernel
        build_rng = random.Random(profile.seed ^ 0x5EED)
        if profile.corunner_rate and profile.corunner_ops:
            if len(machine.core.threads) < 2:
                raise ReproError(
                    "co-runner interference needs an SMT sibling thread "
                    "(model has one hardware thread)"
                )
            self._corunner = kernel.create_process("interference-corunner")
            self._corunner_bursts = self._burst_pool(
                machine, self._corunner, build_rng,
                profile.corunner_ops, profile.corunner_mix,
            )
        if profile.preemption_rate and profile.preemption_ops:
            self._interloper = kernel.create_process("interference-interloper")
            # The interloper mixes store-to-load pairs in even when the
            # co-runner mix is pure loads: the same-thread path is the
            # one that can charge the victim thread's SSBP counters.
            mix = profile.corunner_mix if profile.corunner_mix != "loads" else "mixed"
            self._interloper_bursts = self._burst_pool(
                machine, self._interloper, build_rng,
                profile.preemption_ops, mix,
            )

    def _burst_pool(
        self,
        machine: Machine,
        process: Process,
        build_rng: random.Random,
        ops: int,
        mix: str,
    ) -> list[tuple[Program, dict[str, int]]]:
        buf = machine.kernel.map_anonymous(process, pages=BURST_BUFFER_PAGES)
        pool = []
        for _ in range(_BURST_VARIANTS):
            burst = build_burst(build_rng, ops, mix)
            pool.append((machine.load_program(process, burst), {"buf": buf}))
        return pool

    # ------------------------------------------------------------------
    # Machine hooks
    # ------------------------------------------------------------------
    def before_run(self, process: Process, thread_id: int) -> None:
        """Called by the machine before scheduling every program run."""
        if self._active or self.machine is None:
            return
        profile = self.profile
        self._active = True
        try:
            if self._interloper is not None and process is not self._interloper:
                if self.rng.random() < profile.preemption_rate:
                    self._preempt(thread_id)
            if self._corunner is not None and process is not self._corunner:
                if self.rng.random() < profile.corunner_rate:
                    self._corunner_burst(thread_id)
        finally:
            self._active = False

    def after_run(self, thread_id: int) -> None:
        """Called by the machine after every program run completes."""
        if self._active or self.machine is None:
            return
        profile = self.profile
        if profile.pmc_noise and self.rng.random() < profile.pmc_noise:
            event = self.rng.choice(PmcEvent.ALL)
            self.machine.core.thread(thread_id).pmc.perturb(event)
            self.pmc_perturbations += 1
            registry().counter("interference.pmc_perturbations").inc()

    def _preempt(self, thread_id: int) -> None:
        """Involuntary context switch: interloper runs on this thread."""
        machine = self.machine
        program, regs = self._interloper_bursts[
            self.rng.randrange(len(self._interloper_bursts))
        ]
        machine.kernel.preempt(self._interloper, thread_id)
        machine.run(self._interloper, program, regs, thread_id=thread_id)
        self.preemptions += 1
        registry().counter("interference.preemptions").inc()

    def _corunner_burst(self, thread_id: int) -> None:
        """Co-runner burst on the SMT sibling (shared cache, private
        predictors)."""
        machine = self.machine
        sibling = thread_id ^ 1
        program, regs = self._corunner_bursts[
            self.rng.randrange(len(self._corunner_bursts))
        ]
        machine.run(self._corunner, program, regs, thread_id=sibling)
        self.corunner_runs += 1
        registry().counter("interference.corunner_bursts").inc()

    # ------------------------------------------------------------------
    # Timer path (pulled by the attacker measurement code)
    # ------------------------------------------------------------------
    def timer(self, cycles: int) -> int:
        """DVFS drift + per-read jitter over one raw cycle reading.

        The drift term is a triangular ramp over ``drift_period`` reads
        — slow against any one protocol phase, large against a whole
        campaign, which is exactly what makes stale calibrations fail
        and recalibration-on-drift necessary.
        """
        profile = self.profile
        if profile.timer_drift == 0.0 and profile.timer_jitter == 0.0:
            return cycles
        self._timer_reads += 1
        registry().counter("interference.timer_reads").inc()
        factor = 1.0
        if profile.timer_drift:
            pos = (self._timer_reads % profile.drift_period) / profile.drift_period
            factor += profile.timer_drift * (1.0 - abs(2.0 * pos - 1.0))
        if profile.timer_jitter:
            factor += self.rng.uniform(-profile.timer_jitter, profile.timer_jitter)
        return max(0, round(cycles * factor))

    def __repr__(self) -> str:
        return (
            f"InterferenceModel(profile={self.profile.name!r}, "
            f"preemptions={self.preemptions}, corunner={self.corunner_runs})"
        )
