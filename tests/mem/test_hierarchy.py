"""Unit tests for the L1/L2/L3 hierarchy and Flush+Reload primitives."""

from repro.core.config import LatencyModel
from repro.mem.hierarchy import CacheLevel, MemoryHierarchy


class TestLoadPath:
    def test_cold_load_from_memory(self):
        hierarchy = MemoryHierarchy()
        latency, level = hierarchy.load(0x1000)
        assert level is CacheLevel.MEMORY
        assert latency == hierarchy.latency.memory

    def test_warm_load_hits_l1(self):
        hierarchy = MemoryHierarchy()
        hierarchy.load(0x1000)
        latency, level = hierarchy.load(0x1000)
        assert level is CacheLevel.L1
        assert latency == hierarchy.latency.l1_hit

    def test_fill_is_inclusive(self):
        hierarchy = MemoryHierarchy()
        hierarchy.load(0x1000)
        assert hierarchy.l2.contains(0x1000)
        assert hierarchy.l3.contains(0x1000)

    def test_l2_hit_after_l1_flush(self):
        hierarchy = MemoryHierarchy()
        hierarchy.load(0x1000)
        hierarchy.l1.flush_line(0x1000)
        latency, level = hierarchy.load(0x1000)
        assert level is CacheLevel.L2
        assert latency == hierarchy.latency.l2_hit

    def test_store_allocates(self):
        hierarchy = MemoryHierarchy()
        hierarchy.store(0x2000)
        assert hierarchy.probe_level(0x2000) is CacheLevel.L1


class TestFlushReloadPrimitives:
    def test_clflush_removes_from_all_levels(self):
        hierarchy = MemoryHierarchy()
        hierarchy.load(0x3000)
        hierarchy.clflush(0x3000)
        assert hierarchy.probe_level(0x3000) is CacheLevel.MEMORY

    def test_flush_all(self):
        hierarchy = MemoryHierarchy()
        for addr in range(0, 0x10000, 64):
            hierarchy.load(addr)
        hierarchy.flush_all()
        assert hierarchy.l1.occupancy == 0
        assert hierarchy.probe_level(0) is CacheLevel.MEMORY


class TestCustomLatency:
    def test_latencies_flow_from_model(self):
        latency = LatencyModel(l1_hit=2, l2_hit=10, l3_hit=30, memory=99)
        hierarchy = MemoryHierarchy(latency)
        assert hierarchy.load(0)[0] == 99
        assert hierarchy.load(0)[0] == 2
