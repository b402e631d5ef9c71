"""SMT interleaved execution: partitioned predictors, shared caches.

Section IV-A: both predictors are partitioned between the two SMT
threads of a core; the data caches are shared.  These tests run two
programs *concurrently* (round-robin stepping) and check both halves.
"""

import pytest

from repro.cpu.isa import (
    AluImm,
    Halt,
    ImulImm,
    Load,
    Mov,
    MovImm,
    Program,
    Store,
)
from repro.cpu.machine import Machine
from repro.errors import SimulationLimitExceeded
from repro.telemetry.metrics import registry


def stld_program(repeats: int, aliasing: bool) -> Program:
    """``repeats`` aliasing (or disjoint) delayed store-load pairs."""
    instructions = []
    for _ in range(repeats):
        instructions += [Mov("t", "sbase")]
        instructions += [ImulImm("t", "t", 1)] * 20
        instructions += [
            MovImm("d", 0xDD),
            Store(base="t", src="d", width=8),
            Load("out", base="lbase", width=8),
        ]
    instructions.append(Halt())
    return Program(instructions, name="smt-stld")


@pytest.fixture()
def machine():
    return Machine(seed=606)


class TestRunSmt:
    def test_two_jobs_complete(self, machine):
        a = machine.kernel.create_process("a")
        b = machine.kernel.create_process("b")
        buf_a = machine.kernel.map_anonymous(a, pages=1)
        buf_b = machine.kernel.map_anonymous(b, pages=1)
        prog_a = machine.load_program(a, stld_program(3, aliasing=True))
        prog_b = machine.load_program(b, stld_program(3, aliasing=True))
        results = machine.run_smt(
            [
                (a, prog_a, {"sbase": buf_a, "lbase": buf_a}),
                (b, prog_b, {"sbase": buf_b, "lbase": buf_b}),
            ]
        )
        assert len(results) == 2
        assert all(r.regs["out"] == 0xDD for r in results)

    def test_each_job_counts_as_a_pipeline_run(self, machine):
        a = machine.kernel.create_process("a")
        buf = machine.kernel.map_anonymous(a, pages=1)
        prog = machine.load_program(a, stld_program(2, aliasing=True))
        regs = {"sbase": buf, "lbase": buf}
        before = registry().snapshot()
        results = machine.run_smt([(a, prog, regs), (a, prog, regs)])
        counters = registry().delta_since(before)["counters"]
        assert counters["pipeline.runs"] == 2
        assert counters["pipeline.retired"] == sum(r.retired for r in results)
        assert counters["pipeline.cycles"] == sum(r.cycles for r in results)
        assert [machine.core.thread(i).cycles for i in (0, 1)] == [
            r.cycles for r in results
        ]

    def test_too_many_jobs_rejected(self, machine):
        a = machine.kernel.create_process("a")
        prog = machine.load_program(a, Program([Halt()], name="x"))
        with pytest.raises(ValueError):
            machine.run_smt([(a, prog, None)] * 3)

    def test_step_budget_enforced(self, machine):
        a = machine.kernel.create_process("a")
        prog = machine.load_program(a, stld_program(50, True))
        buf = machine.kernel.map_anonymous(a, pages=1)
        with pytest.raises(SimulationLimitExceeded):
            machine.run_smt([(a, prog, {"sbase": buf, "lbase": buf})], max_steps=10)


class TestSmtPredictorPartitioning:
    def test_concurrent_training_stays_per_thread(self, machine):
        """Thread 0's aliasing pairs train thread 0's predictors only,
        even while thread 1 is actively executing its own pairs."""
        a = machine.kernel.create_process("smt-a")
        b = machine.kernel.create_process("smt-b")
        buf_a = machine.kernel.map_anonymous(a, pages=1)
        buf_b = machine.kernel.map_anonymous(b, pages=1)
        prog_a = machine.load_program(a, stld_program(6, True))
        prog_b = machine.load_program(b, stld_program(6, True))
        machine.run_smt(
            [
                (a, prog_a, {"sbase": buf_a, "lbase": buf_a}),
                (b, prog_b, {"sbase": buf_b, "lbase": buf_b}),
            ]
        )
        unit0 = machine.core.thread(0).unit
        unit1 = machine.core.thread(1).unit
        assert unit0 is not unit1
        # Both threads ran aliasing pairs concurrently; each trained its
        # OWN predictor copy (duplicated resources, Section IV-A), and
        # each holds only its own code's entry.
        assert unit0.ssbp.occupancy >= 1
        assert unit1.ssbp.occupancy >= 1
        tags0 = {e.load_tag for e in unit0.ssbp.entries()}
        tags1 = {e.load_tag for e in unit1.ssbp.entries()}
        assert not tags0 & tags1  # different code addresses, no bleed

    def test_disjoint_smt_activity_trains_nothing_on_sibling(self, machine):
        a = machine.kernel.create_process("smt-a")
        b = machine.kernel.create_process("smt-b")
        buf_a = machine.kernel.map_anonymous(a, pages=1)
        buf_b = machine.kernel.map_anonymous(b, pages=1)
        prog_a = machine.load_program(a, stld_program(5, True))   # aliasing
        prog_b = machine.load_program(b, stld_program(5, True))
        machine.run_smt(
            [
                (a, prog_a, {"sbase": buf_a, "lbase": buf_a}),          # aliasing
                (b, prog_b, {"sbase": buf_b, "lbase": buf_b + 0x80}),   # disjoint
            ]
        )
        assert machine.core.thread(0).unit.ssbp.occupancy >= 1
        assert machine.core.thread(1).unit.ssbp.occupancy == 0


class TestSmtSharedCaches:
    def test_sibling_warms_shared_lines(self, machine):
        """The cache hierarchy is core-shared: lines a sibling touched
        through a shared mapping are warm for this thread."""
        a = machine.kernel.create_process("warmer")
        b = machine.kernel.create_process("reader")
        buf_a = machine.kernel.map_anonymous(a, pages=1)
        shared = machine.kernel.map_shared(b, a, buf_a, pages=1)

        toucher = machine.load_program(
            a,
            Program(
                [AluImm("p", "base", 0, "add"), Load("x", base="p"), Halt()],
                name="touch",
            ),
        )
        reader = machine.load_program(
            b,
            Program([Load("y", base="base"), Halt()], name="read"),
        )
        machine.run_smt(
            [(a, toucher, {"base": buf_a}), (b, reader, {"base": shared})]
        )
        # Measure thread 1's reload now: the line must be cache-warm.
        warm = machine.run(b, reader, {"base": shared}, thread_id=1)
        assert warm.cycles < machine.core.model.latency.memory
