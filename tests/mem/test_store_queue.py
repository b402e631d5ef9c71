"""Unit tests for the store queue."""

import pytest

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
    def test_unresolved_older(self):
        queue = StoreQueue()
        queue.push(entry(1, 0x100, addr_ready=50))
        queue.push(entry(2, 0x200, addr_ready=5))
        unresolved = queue.unresolved_older(seq=3, now=10)
        assert [e.seq for e in unresolved] == [1]

    def test_nearest_unresolved_is_youngest(self):
        queue = StoreQueue()
        queue.push(entry(1, 0x100, addr_ready=50))
        queue.push(entry(2, 0x200, addr_ready=60))
        nearest = queue.nearest_unresolved(seq=3, now=10)
        assert nearest is not None and nearest.seq == 2

    def test_nearest_unresolved_ignores_younger(self):
        queue = StoreQueue()
        queue.push(entry(5, 0x100, addr_ready=50))
        assert queue.nearest_unresolved(seq=3, now=0) is None

    def test_forwarding_store_matches_resolved_cover(self):
        queue = StoreQueue()
        queue.push(entry(1, 0x100, data=b"abcdefgh", addr_ready=0))
        found = queue.forwarding_store(seq=2, paddr=0x102, size=2, now=10)
        assert found is not None and found.seq == 1

    def test_forwarding_store_ignores_unresolved(self):
        queue = StoreQueue()
        queue.push(entry(1, 0x100, data=b"abcdefgh", addr_ready=99))
        assert queue.forwarding_store(seq=2, paddr=0x100, size=1, now=10) is None

    def test_forwarding_prefers_youngest(self):
        queue = StoreQueue()
        queue.push(entry(1, 0x100, data=b"old!!!!!"))
        queue.push(entry(2, 0x100, data=b"new!!!!!"))
        found = queue.forwarding_store(seq=3, paddr=0x100, size=4, now=10)
        assert found is not None and found.seq == 2


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
