"""Pipeline tests: architectural semantics (values, ordering, faults)."""

import gc
import weakref

import pytest

from repro.cpu.isa import (
    Alu,
    AluImm,
    Clflush,
    Halt,
    Imul,
    ImulImm,
    Jz,
    Label,
    Load,
    Mfence,
    Mov,
    MovImm,
    Program,
    Rdpru,
    Store,
)
from repro.cpu.machine import Machine
from repro.errors import SegmentationFault


@pytest.fixture()
def machine():
    return Machine(seed=3)


@pytest.fixture()
def process(machine):
    return machine.kernel.create_process("proc")


def run(machine, process, instructions, regs=None):
    program = machine.load_program(process, Program(instructions, name="test"))
    return machine.run(process, program, regs)


class TestArithmetic:
    def test_mov_imm(self, machine, process):
        result = run(machine, process, [MovImm("a", 42), Halt()])
        assert result.regs["a"] == 42

    def test_mov_reg(self, machine, process):
        result = run(machine, process, [MovImm("a", 7), Mov("b", "a"), Halt()])
        assert result.regs["b"] == 7

    def test_alu_ops(self, machine, process):
        result = run(
            machine,
            process,
            [
                MovImm("a", 12),
                MovImm("b", 10),
                Alu("sum", "a", "b", "add"),
                Alu("diff", "a", "b", "sub"),
                Alu("x", "a", "b", "xor"),
                Alu("n", "a", "b", "and"),
                Alu("o", "a", "b", "or"),
                Halt(),
            ],
        )
        assert result.regs["sum"] == 22
        assert result.regs["diff"] == 2
        assert result.regs["x"] == 12 ^ 10
        assert result.regs["n"] == 12 & 10
        assert result.regs["o"] == 12 | 10

    def test_alu_imm(self, machine, process):
        result = run(machine, process, [MovImm("a", 5), AluImm("a", "a", 3), Halt()])
        assert result.regs["a"] == 8

    def test_imul(self, machine, process):
        result = run(
            machine,
            process,
            [MovImm("a", 6), MovImm("b", 7), Imul("p", "a", "b"), Halt()],
        )
        assert result.regs["p"] == 42

    def test_imul_imm_chain_preserves_value(self, machine, process):
        instructions = [MovImm("a", 123)]
        instructions += [ImulImm("a", "a", 1)] * 20
        instructions.append(Halt())
        result = run(machine, process, instructions)
        assert result.regs["a"] == 123

    def test_u64_wraparound(self, machine, process):
        result = run(
            machine,
            process,
            [MovImm("a", (1 << 64) - 1), AluImm("a", "a", 1), Halt()],
        )
        assert result.regs["a"] == 0

    def test_unknown_register_reads_zero(self, machine, process):
        result = run(machine, process, [Mov("b", "never_set"), Halt()])
        assert result.regs["b"] == 0


class TestMemory:
    def test_store_then_load_after_fence(self, machine, process):
        buf = machine.kernel.map_anonymous(process, pages=1)
        result = run(
            machine,
            process,
            [
                MovImm("addr", buf),
                MovImm("val", 0xABCD),
                Store(base="addr", src="val"),
                Mfence(),
                Load("out", base="addr"),
                Halt(),
            ],
        )
        assert result.regs["out"] == 0xABCD

    def test_store_to_load_forwarding_without_fence(self, machine, process):
        """A resolved store forwards to a younger load from the SQ."""
        buf = machine.kernel.map_anonymous(process, pages=1)
        result = run(
            machine,
            process,
            [
                MovImm("addr", buf),
                MovImm("val", 99),
                Store(base="addr", src="val"),
                Load("out", base="addr"),
                Halt(),
            ],
        )
        assert result.regs["out"] == 99

    def test_narrow_store_load(self, machine, process):
        buf = machine.kernel.map_anonymous(process, pages=1)
        result = run(
            machine,
            process,
            [
                MovImm("addr", buf),
                MovImm("val", 0x1FF),
                Store(base="addr", src="val", width=1),
                Mfence(),
                Load("out", base="addr", width=1),
                Halt(),
            ],
        )
        assert result.regs["out"] == 0xFF

    def test_store_persists_to_memory(self, machine, process):
        buf = machine.kernel.map_anonymous(process, pages=1)
        run(
            machine,
            process,
            [
                MovImm("addr", buf),
                MovImm("val", 7),
                Store(base="addr", src="val"),
                Halt(),
            ],
        )
        assert machine.kernel.read(process, buf, 1)[0] == 7

    def test_load_offset_addressing(self, machine, process):
        buf = machine.kernel.map_anonymous(process, pages=1)
        machine.kernel.write(process, buf + 16, (1234).to_bytes(8, "little"))
        result = run(
            machine,
            process,
            [MovImm("addr", buf), Load("out", base="addr", offset=16), Halt()],
        )
        assert result.regs["out"] == 1234

    def test_clflush_slows_next_load(self, machine, process):
        buf = machine.kernel.map_anonymous(process, pages=1)
        warm = run(
            machine,
            process,
            [MovImm("addr", buf), Load("a", base="addr"), Halt()],
        )
        cached = run(
            machine,
            process,
            [MovImm("addr", buf), Load("a", base="addr"), Halt()],
        )
        flushed = run(
            machine,
            process,
            [
                MovImm("addr", buf),
                Clflush(base="addr"),
                Load("a", base="addr"),
                Halt(),
            ],
        )
        assert flushed.cycles > cached.cycles + 100  # memory vs L1

    def test_load_unmapped_raises(self, machine, process):
        with pytest.raises(SegmentationFault):
            run(
                machine,
                process,
                [MovImm("addr", 0xDEAD0000), Load("a", base="addr"), Halt()],
            )

    def test_unhandled_fault_commits_older_stores(self, machine, process):
        """Stores older than an unhandled fault reach memory, as in the
        reference interpreter, and leave the store queue empty for the
        thread's next run."""
        buf = machine.kernel.map_anonymous(process, pages=1)
        with pytest.raises(SegmentationFault):
            run(
                machine,
                process,
                [
                    MovImm("v", 7),
                    MovImm("sd", buf),
                    *[ImulImm("sd", "sd", 1)] * 20,  # the store resolves late
                    Store(base="sd", src="v"),
                    MovImm("fp", 0),
                    Load("x", base="fp"),
                    Halt(),
                ],
            )
        assert machine.kernel.read(process, buf, 1)[0] == 7
        run(
            machine,
            process,
            [MovImm("v", 9), MovImm("a", buf), Store(base="a", src="v"), Halt()],
        )
        assert machine.kernel.read(process, buf, 1)[0] == 9

    def test_fault_handler_label(self, machine, process):
        result = run(
            machine,
            process,
            [
                MovImm("addr", 0xDEAD0000),
                Load("a", base="addr"),
                MovImm("ok", 0),  # squashed wrong path
                Halt(),
                Label("fault_handler"),
                MovImm("ok", 1),
                Halt(),
            ],
        )
        assert result.regs["ok"] == 1
        assert result.rollbacks == 1


class TestBranches:
    def test_taken_branch(self, machine, process):
        result = run(
            machine,
            process,
            [
                MovImm("cond", 0),
                Jz("cond", "skip"),
                MovImm("x", 1),
                Label("skip"),
                Halt(),
            ],
        )
        assert result.regs.get("x", 0) == 0

    def test_not_taken_branch(self, machine, process):
        result = run(
            machine,
            process,
            [
                MovImm("cond", 5),
                Jz("cond", "skip"),
                MovImm("x", 1),
                Label("skip"),
                Halt(),
            ],
        )
        assert result.regs["x"] == 1

    def test_branch_trains_and_mispredicts(self, machine, process):
        """After training taken, a not-taken run pays a rollback."""
        program = machine.load_program(
            process,
            Program(
                [
                    MovImm("x", 0),
                    Jz("cond", "out"),
                    MovImm("x", 1),
                    Label("out"),
                    Halt(),
                ],
                name="branchy",
            ),
        )
        for _ in range(4):  # train strongly taken
            machine.run(process, program, {"cond": 0})
        result = machine.run(process, program, {"cond": 7})
        assert result.regs["x"] == 1  # architecturally correct
        assert result.rollbacks == 1


class TestTiming:
    def test_rdpru_reads_progressing_cycles(self, machine, process):
        result = run(
            machine,
            process,
            [Rdpru("t0"), MovImm("a", 1)] + [ImulImm("a", "a", 1)] * 10 + [Rdpru("t1"), Halt()],
        )
        assert result.regs["t1"] > result.regs["t0"]

    def test_thread_cycles_accumulate(self, machine, process):
        before = machine.core.thread(0).cycles
        run(machine, process, [MovImm("a", 1), Halt()])
        assert machine.core.thread(0).cycles > before

    def test_imul_chain_costs_three_per_link(self, machine, process):
        short = run(
            machine, process, [MovImm("a", 1)] + [ImulImm("a", "a", 1)] * 5 + [Halt()]
        )
        long = run(
            machine, process, [MovImm("a", 1)] + [ImulImm("a", "a", 1)] * 15 + [Halt()]
        )
        lat = machine.core.model.latency.imul
        assert long.cycles - short.cycles == pytest.approx(10 * lat, abs=12)

    def test_deterministic_across_machines(self):
        def one_run():
            machine = Machine(seed=11)
            process = machine.kernel.create_process("p")
            buf = machine.kernel.map_anonymous(process, pages=1)
            return run(
                machine,
                process,
                [MovImm("addr", buf), Load("x", base="addr"), Halt()],
            ).cycles

        assert one_run() == one_run()


class TestLifetime:
    def test_machine_is_freed_without_the_cycle_collector(self):
        """No reference cycle keeps a run machine alive: run-once
        workloads build thousands, and each holds its touched frames."""
        gc.disable()
        try:
            machine = Machine(seed=1)
            process = machine.kernel.create_process("once")
            buf = machine.kernel.map_anonymous(process, pages=1)
            run(machine, process, [MovImm("a", buf), Load("b", base="a"), Halt()])
            alive = weakref.ref(machine.core)  # the memory's owner
            del machine, process
            assert alive() is None
        finally:
            gc.enable()
