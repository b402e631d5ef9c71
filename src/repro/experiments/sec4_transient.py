"""E9/E10 — Sections IV-C and IV-D (Figs 8 and 9): transient behaviour.

Fig 8 — both predictors open transient windows with attacker-influenced
values: a PSFP misprediction forwards the store's data (0xdd) to a load
of a different address, and an SSBP misprediction lets the load read the
*stale* memory value (0xcc) under a pending store.  The wrongly loaded
value is consumed by dependent code (observable via a surviving cache
touch) before the rollback.

Fig 9 — predictor updates performed inside a transient window — whether
opened by a branch misprediction, a faulting load, or a memory
misprediction — survive the squash (Vulnerability 4).
"""

from __future__ import annotations

from repro.core.exec_types import ExecType
from repro.cpu.isa import (
    Alu,
    Halt,
    ImulImm,
    Jz,
    Label,
    Load,
    Mov,
    MovImm,
    Program,
    Store,
)
from repro.cpu.machine import Machine
from repro.experiments.base import ExperimentResult
from repro.mem.hierarchy import CacheLevel

__all__ = ["run"]


def _delayed_stld(buf, store_off, load_off, probe):
    """store [buf+store_off] = 0xDD (delayed by 20 multiplies); load
    [buf+load_off]; transiently encode the loaded value into
    probe[value * 4096]."""
    instructions = [MovImm("sbase", buf + store_off), Mov("t", "sbase")]
    instructions += [ImulImm("t", "t", 1)] * 20
    instructions += [
        MovImm("data", 0xDD),
        Store(base="t", src="data", width=8),
        MovImm("lbase", buf + load_off),
        Load("out", base="lbase", width=8),
        MovImm("pbase", probe),
        ImulImm("scaled", "out", 4096),
        Alu("paddr", "pbase", "scaled", "add"),
        Load("leak", base="paddr"),
        Halt(),
    ]
    return Program(instructions, name="fig8")


def _touched(machine, process, vaddr) -> bool:
    paddr = machine.kernel.translate(process, vaddr)
    return machine.core.hierarchy.probe_level(paddr) is not CacheLevel.MEMORY


def _fig8_psfp(result: ExperimentResult, seed: int) -> None:
    """PSF misprediction: 0xdd forwarded to a load of a different address."""
    machine = Machine(seed=seed)
    process = machine.kernel.create_process("fig8-psfp")
    buf = machine.kernel.map_anonymous(process, pages=1)
    probe = machine.kernel.map_anonymous(process, pages=257)
    machine.kernel.write(process, buf + 64, (0xCC).to_bytes(8, "little"))
    # PSFP is pair-selected, so training and the attack must run the
    # SAME instructions: one program, addresses supplied via registers.
    trainer = machine.load_program(
        process,
        Program(
            [
                Mov("sbase", "store_target"),
                Mov("t", "sbase"),
                *[ImulImm("t", "t", 1) for _ in range(20)],
                MovImm("data", 0xDD),
                Store(base="t", src="data", width=8),
                Load("out", base="load_target"),
                MovImm("pbase", probe),
                ImulImm("scaled", "out", 4096),
                Alu("paddr", "pbase", "scaled", "add"),
                Load("leak", base="paddr"),
                Halt(),
            ],
            name="fig8-psfp",
        ),
    )
    for _ in range(6):  # G, then aliasing runs until PSF-enabled
        machine.run(
            process, trainer, {"store_target": buf, "load_target": buf}
        )
    machine.kernel.write(process, buf + 64, (0xCC).to_bytes(8, "little"))
    result_run = machine.run(
        process, trainer, {"store_target": buf + 64, "load_target": buf}
    )
    forwarded = _touched(machine, process, probe + 0xDD * 4096)
    types = result_run.exec_types()
    event = types[0] if types else None
    result.add_row(
        "PSFP misprediction (Fig 8, 4a)",
        "0xdd (the store's data) loaded transiently",
        forwarded and event is ExecType.D,
    )


def _fig8_ssbp(result: ExperimentResult, seed: int) -> None:
    """Bypass misprediction: the stale 0xcc read under the pending store."""
    machine = Machine(seed=seed)
    process = machine.kernel.create_process("fig8-ssbp")
    buf = machine.kernel.map_anonymous(process, pages=1)
    probe = machine.kernel.map_anonymous(process, pages=257)
    machine.kernel.write(process, buf, (0xCC).to_bytes(8, "little"))
    program = machine.load_program(
        process, _delayed_stld(buf, store_off=0, load_off=0, probe=probe)
    )
    run = machine.run(process, program)
    stale_touched = _touched(machine, process, probe + 0xCC * 4096)
    g_event = run.has_exec_type(ExecType.G)
    result.add_row(
        "SSBP misprediction (Fig 8, 4b)",
        "0xcc (the stale memory value) loaded transiently",
        stale_touched and g_event and run.rollbacks == 1,
    )


def _fig9_windows(result: ExperimentResult, seed: int) -> None:
    """Predictor updates inside each window type survive the squash."""
    # --- branch misprediction window
    machine = Machine(seed=seed)
    process = machine.kernel.create_process("fig9-branch")
    buf = machine.kernel.map_anonymous(process, pages=1)
    instructions = [Mov("cond", "seed")]
    instructions += [ImulImm("cond", "cond", 1)] * 30
    instructions += [Jz("cond", "path"), Halt(), Label("path"),
                     MovImm("sbase", buf), Mov("t", "sbase")]
    instructions += [ImulImm("t", "t", 1)] * 20
    instructions += [
        MovImm("data", 1),
        Store(base="t", src="data", width=8),
        MovImm("lbase", buf),
        Alu("laddr", "lbase", "poff", "add"),
        Load("out", base="laddr", width=8),
        Halt(),
    ]
    program = machine.load_program(process, Program(instructions, name="b"))
    for _ in range(4):
        machine.run(process, program, {"seed": 0, "poff": 64})
    unit = machine.core.thread(0).unit
    occupancy_before = unit.ssbp.occupancy
    run = machine.run(process, program, {"seed": 1, "poff": 0})
    branch_ok = (
        run.rollbacks >= 1
        and run.has_exec_type(ExecType.G)
        and unit.ssbp.occupancy > occupancy_before
    )
    result.add_row(
        "branch-mispredict window (Fig 9)",
        "squashed stld still trained SSBP",
        branch_ok,
    )

    # --- faulting-load window
    machine = Machine(seed=seed + 1)
    process = machine.kernel.create_process("fig9-fault")
    buf = machine.kernel.map_anonymous(process, pages=1)
    instructions = [MovImm("bad", 0xDEAD0000), Load("x", base="bad"),
                    MovImm("sbase", buf), Mov("t", "sbase")]
    instructions += [ImulImm("t", "t", 1)] * 10
    instructions += [
        MovImm("data", 1),
        Store(base="t", src="data", width=8),
        Load("out", base="sbase", width=8),
        Halt(),
        Label("fault_handler"),
        Halt(),
    ]
    program = machine.load_program(process, Program(instructions, name="f"))
    unit = machine.core.thread(0).unit
    run = machine.run(process, program)
    fault_ok = (
        run.rollbacks >= 1
        and run.has_exec_type(ExecType.G)
        and unit.ssbp.occupancy >= 1
    )
    result.add_row(
        "faulting-load window (Fig 9)",
        "squashed stld still trained SSBP",
        fault_ok,
    )

    # --- memory (bypass) misprediction window
    machine = Machine(seed=seed + 2)
    process = machine.kernel.create_process("fig9-mem")
    buf = machine.kernel.map_anonymous(process, pages=1)
    instructions = [MovImm("sbase", buf), Mov("t", "sbase")]
    instructions += [ImulImm("t", "t", 1)] * 30
    instructions += [
        MovImm("data", 1),
        Store(base="t", src="data", width=8),
        Load("first", base="sbase", width=8),    # G: opens the window
        Load("second", base="sbase", width=8),   # nested pair, squashed
        Halt(),
    ]
    program = machine.load_program(process, Program(instructions, name="m"))
    run = machine.run(process, program)
    memory_ok = (run.rollbacks == 1 and len(run.events) >= 2
                 and run.has_exec_type(ExecType.G))
    result.add_row(
        "memory-mispredict window (Fig 9)",
        "nested pair's update survived the squash",
        bool(memory_ok),
    )


def run(seed: int = 8) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="sec4-transient",
        title="Transient execution (Fig 8) and transient updates (Fig 9)",
        headers=["window", "observation", "confirmed"],
        paper_claim=(
            "both predictors open transient windows with incorrect loaded "
            "values (Vuln 3); predictor updates in any window survive the "
            "rollback (Vuln 4)"
        ),
    )
    _fig8_psfp(result, seed)
    _fig8_ssbp(result, seed + 1)
    _fig9_windows(result, seed + 2)
    result.metrics["vulnerability_3_confirmed"] = str(
        all(row[2] for row in result.rows[:2])
    )
    result.metrics["vulnerability_4_confirmed"] = str(
        all(row[2] for row in result.rows[2:])
    )
    return result
