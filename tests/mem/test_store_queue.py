"""Unit tests for the store queue."""

import pytest

from repro.core.exec_types import ExecType
from repro.cpu.isa import AluImm, Halt, ImulImm, Load, Mfence, Mov, MovImm, Program, Store
from repro.cpu.machine import Machine
from repro.cpu.pmc import PmcEvent
from repro.errors import SimulationLimitExceeded
from repro.mem.physical import PhysicalMemory
from repro.mem.store_queue import StoreEntry, StoreQueue


def entry(seq, paddr, data=b"\xAA", addr_ready=0, data_ready=0, ipa=0x1000):
    return StoreEntry(
        seq=seq,
        paddr=paddr,
        size=len(data),
        data=data,
        addr_ready=addr_ready,
        data_ready=data_ready,
        store_ipa=ipa,
    )


class TestPushAndOrder:
    def test_push(self):
        queue = StoreQueue()
        queue.push(entry(1, 0x100))
        assert len(queue) == 1

    def test_capacity_enforced(self):
        queue = StoreQueue(capacity=2)
        queue.push(entry(1, 0))
        queue.push(entry(2, 8))
        with pytest.raises(SimulationLimitExceeded):
            queue.push(entry(3, 16))

    def test_program_order_enforced(self):
        queue = StoreQueue()
        queue.push(entry(5, 0))
        with pytest.raises(ValueError):
            queue.push(entry(4, 8))


class TestOverlap:
    def test_overlaps(self):
        e = entry(1, 0x100, data=b"\x00" * 8)
        assert e.overlaps(0x100, 1)
        assert e.overlaps(0x107, 1)
        assert not e.overlaps(0x108, 1)
        assert not e.overlaps(0xF8, 8)

    def test_covers(self):
        e = entry(1, 0x100, data=b"\x00" * 8)
        assert e.covers(0x102, 4)
        assert not e.covers(0x106, 4)


class TestLookups:
    """The load path's store-queue lookups, observed through the pipeline.

    The predictor's pair is the youngest older store whose address is
    not generated yet; the other unresolved stores are read around.  A
    younger or committed store is no pair, and of the resolved stores
    the youngest one overlapping the load decides forwarding.
    """

    @pytest.fixture()
    def rig(self):
        machine = Machine(seed=5)
        process = machine.kernel.create_process("loads")
        return machine, process, machine.kernel.map_anonymous(process, pages=1)

    @staticmethod
    def run(machine, process, instructions):
        program = machine.load_program(process, Program(instructions, name="lookups"))
        stlf = machine.core.thread(0).pmc.read(PmcEvent.STLF)
        result = machine.run(process, program)
        stores = [
            process.address_space.translate_nofault(program.iva(index))
            for index, inst in enumerate(program.instructions)
            if isinstance(inst, Store)
        ]
        forwards = machine.core.thread(0).pmc.read(PmcEvent.STLF) - stlf
        return result, stores, forwards

    @staticmethod
    def delayed_stores(buf, load_off, fence=False):
        """Address-delayed stores to buf and buf+64 (the first resolves
        later), then a load of buf+load_off."""
        instructions = [MovImm("base", buf), MovImm("data", 0xDD)]
        for index, (offset, agen) in enumerate(((0, 20), (64, 10))):
            instructions.append(AluImm(f"t{index}", "base", offset, "add"))
            instructions += [ImulImm(f"t{index}", f"t{index}", 1)] * agen
            instructions.append(Store(base=f"t{index}", src="data", width=8))
        if fence:
            instructions.append(Mfence())
        return instructions + [
            AluImm("lbase", "base", load_off, "add"),
            Load("out", base="lbase", width=8),
            Halt(),
        ]

    @staticmethod
    def resolved_stores(buf, offset, width):
        """Two stores with generated addresses (late data keeps both
        queued), then a 2-byte load of buf+2."""
        return [
            MovImm("base", buf),
            MovImm("old", 0x11),
            *[ImulImm("old", "old", 1)] * 6,
            MovImm("new", 0x22),
            Store(base="base", src="old", width=8),
            Store(base="base", src="new", offset=offset, width=width),
            Load("out", base="base", offset=2, width=2),
            Halt(),
        ]

    def test_unresolved_older(self, rig):
        """An older unresolved store that aliases is read around: a
        memory-ordering squash, while the younger store is the pair."""
        machine, process, buf = rig
        machine.kernel.write(process, buf, (0xCC).to_bytes(8, "little"))
        result, (_, younger), _ = self.run(machine, process, self.delayed_stores(buf, 0))
        assert [(e.exec_type, e.store_ipa) for e in result.events] == [
            (ExecType.H, younger)
        ]
        assert result.rollbacks == 1
        assert result.regs["out"] == 0xDD

    def test_nearest_unresolved_is_youngest(self, rig):
        machine, process, buf = rig
        result, (_, younger), _ = self.run(machine, process, self.delayed_stores(buf, 64))
        assert [(e.exec_type, e.store_ipa) for e in result.events] == [
            (ExecType.G, younger)
        ]
        assert result.regs["out"] == 0xDD

    def test_nearest_unresolved_ignores_younger(self, rig):
        machine, process, buf = rig
        machine.kernel.write(process, buf, (0xCC).to_bytes(8, "little"))
        instructions = [
            MovImm("base", buf),
            Load("out", base="base", width=8),
            Mov("t", "base"),
            *[ImulImm("t", "t", 1)] * 20,
            MovImm("data", 0xDD),
            Store(base="t", src="data", width=8),
            Halt(),
        ]
        result, _, _ = self.run(machine, process, instructions)
        assert result.events == []
        assert result.regs["out"] == 0xCC

    def test_committed_stores_are_ignored(self, rig):
        machine, process, buf = rig
        instructions = self.delayed_stores(buf, 0, fence=True)
        result, _, forwards = self.run(machine, process, instructions)
        assert (result.events, result.rollbacks, forwards) == ([], 0, 0)
        assert result.regs["out"] == 0xDD  # read from memory

    def test_forwarding_store_matches_resolved_cover(self, rig):
        machine, process, buf = rig
        result, _, forwards = self.run(machine, process, self.resolved_stores(buf, 2, 2))
        assert (result.events, forwards) == ([], 1)
        assert result.regs["out"] == 0x0022

    def test_forwarding_store_ignores_unresolved(self, rig):
        """A store without its address is raced through the predictor
        (a fresh one bypasses it: type G), not forwarded from."""
        machine, process, buf = rig
        instructions = [
            MovImm("base", buf),
            Mov("t", "base"),
            *[ImulImm("t", "t", 1)] * 20,
            MovImm("data", 0xDD),
            Store(base="t", src="data", width=8),
            Load("out", base="base", width=8),
            Halt(),
        ]
        result, (store,), _ = self.run(machine, process, instructions)
        assert [(e.exec_type, e.store_ipa) for e in result.events] == [
            (ExecType.G, store)
        ]
        assert result.rollbacks == 1

    def test_forwarding_prefers_youngest(self, rig):
        """The youngest overlapping store decides: its partial overlap
        does not forward, though an older store covers the load."""
        machine, process, buf = rig
        result, _, forwards = self.run(machine, process, self.resolved_stores(buf, 3, 1))
        assert (result.events, forwards) == ([], 0)
        assert result.regs["out"] == 0x2200

    def test_stores_left_by_a_stopped_run_are_not_older(self, rig):
        """A run stopped at the step limit leaves its unresolved store
        queued.  Sequence numbers restart with the next run, so that
        store is not older than the next run's first load: no pair, and
        the load reads memory.  The store commits when that run ends."""
        machine, process, buf = rig
        machine.kernel.write(process, buf, (0xCC).to_bytes(8, "little"))
        stopped = [
            MovImm("base", buf),
            Mov("t", "base"),
            *[ImulImm("t", "t", 1)] * 20,
            MovImm("data", 0xDD),
            Store(base="t", src="data", width=8),
            *[AluImm("x", "x", 1, "add")] * 10,
            Halt(),
        ]
        program = machine.load_program(process, Program(stopped, name="stopped"))
        with pytest.raises(SimulationLimitExceeded):
            machine.run(process, program, max_steps=26)
        assert len(machine.core.thread(0).store_queue) == 1
        load = [MovImm("base", buf), Load("out", base="base", width=8), Halt()]
        result, _, forwards = self.run(machine, process, load)
        assert (result.events, result.rollbacks, forwards) == ([], 0, 0)
        assert result.regs["out"] == 0xCC
        assert len(machine.core.thread(0).store_queue) == 0
        assert machine.kernel.read(process, buf, 1) == b"\xdd"


class TestCommit:
    def test_commit_ready_writes_memory(self):
        queue = StoreQueue()
        memory = PhysicalMemory()
        queue.push(entry(1, 0x100, data=b"xy", addr_ready=5, data_ready=5))
        committed = queue.commit_ready(memory, now=10)
        assert [e.seq for e in committed] == [1]
        assert memory.read(0x100, 2) == b"xy"
        assert len(queue) == 0

    def test_commit_stops_at_unready_head(self):
        """Stores commit in order: a slow head blocks younger ready stores."""
        queue = StoreQueue()
        memory = PhysicalMemory()
        queue.push(entry(1, 0x100, addr_ready=99))
        queue.push(entry(2, 0x200, addr_ready=0))
        assert queue.commit_ready(memory, now=10) == []
        assert len(queue) == 2

    def test_commit_respects_max_seq_ceiling(self):
        """The pipeline caps commitment at an open transient window's
        base so wrong-path stores never reach memory."""
        queue = StoreQueue()
        memory = PhysicalMemory()
        queue.push(entry(1, 0x100, data=b"a"))
        queue.push(entry(2, 0x200, data=b"b"))
        committed = queue.commit_ready(memory, now=10, max_seq=1)
        assert [e.seq for e in committed] == [1]
        assert memory.read(0x200, 1) == b"\x00"
        assert len(queue) == 1

    def test_commit_max_seq_none_commits_all(self):
        queue = StoreQueue()
        memory = PhysicalMemory()
        queue.push(entry(1, 0x100, data=b"a"))
        queue.push(entry(2, 0x200, data=b"b"))
        assert len(queue.commit_ready(memory, now=10, max_seq=None)) == 2

    def test_drain(self):
        queue = StoreQueue()
        memory = PhysicalMemory()
        queue.push(entry(1, 0x100, data=b"a", addr_ready=99, data_ready=99))
        queue.drain(memory)
        assert memory.read(0x100, 1) == b"a"
        assert len(queue) == 0

    def test_squash_younger(self):
        queue = StoreQueue()
        queue.push(entry(1, 0x100))
        queue.push(entry(2, 0x200))
        queue.push(entry(3, 0x300))
        squashed = queue.squash_younger(seq=1)
        assert [e.seq for e in squashed] == [2, 3]
        assert [e.seq for e in queue.entries()] == [1]
