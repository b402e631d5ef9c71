"""The three-level data-cache hierarchy of a Zen 3 core.

Zen 3 geometry: 32 KiB 8-way L1D, 512 KiB 8-way private L2, and a 32 MiB
16-way L3 slice shared per CCX.  Loads probe L1 -> L2 -> L3 -> memory and
fill all levels on the way back (inclusive-enough for our purposes);
``clflush`` removes the line from every level, which is all Flush+Reload
needs.
"""

from __future__ import annotations

import enum

from repro.core.config import LatencyModel
from repro.mem.cache import Cache

__all__ = ["CacheLevel", "MemoryHierarchy"]


class CacheLevel(enum.Enum):
    """Where a load was served from."""

    L1 = "L1"
    L2 = "L2"
    L3 = "L3"
    MEMORY = "memory"


class MemoryHierarchy:
    """L1D/L2/L3 presence model with per-level latencies."""

    def __init__(self, latency: LatencyModel | None = None) -> None:
        self.latency = latency or LatencyModel()
        self.l1 = Cache("L1D", size_bytes=32 << 10, ways=8)
        self.l2 = Cache("L2", size_bytes=512 << 10, ways=8)
        self.l3 = Cache("L3", size_bytes=32 << 20, ways=16)

    def load(self, paddr: int) -> tuple[int, CacheLevel]:
        """Access ``paddr``; returns (latency_cycles, serving level)."""
        if self.l1.access(paddr):
            return self.latency.l1_hit, CacheLevel.L1
        if self.l2.access(paddr):
            return self.latency.l2_hit, CacheLevel.L2
        if self.l3.access(paddr):
            return self.latency.l3_hit, CacheLevel.L3
        return self.latency.memory, CacheLevel.MEMORY

    def store(self, paddr: int) -> int:
        """A committed store allocates the line (write-allocate)."""
        latency, _ = self.load(paddr)
        return latency

    def probe_level(self, paddr: int) -> CacheLevel:
        """Non-destructive: where would a load be served from right now?"""
        if self.l1.contains(paddr):
            return CacheLevel.L1
        if self.l2.contains(paddr):
            return CacheLevel.L2
        if self.l3.contains(paddr):
            return CacheLevel.L3
        return CacheLevel.MEMORY

    def clflush(self, paddr: int) -> None:
        """Flush the line from every level (the user-mode clflush)."""
        self.l1.flush_line(paddr)
        self.l2.flush_line(paddr)
        self.l3.flush_line(paddr)

    def flush_all(self) -> None:
        self.l1.flush_all()
        self.l2.flush_all()
        self.l3.flush_all()

    def __repr__(self) -> str:
        return (
            f"MemoryHierarchy(l1={self.l1.occupancy}, l2={self.l2.occupancy}, "
            f"l3={self.l3.occupancy})"
        )
