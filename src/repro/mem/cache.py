"""A set-associative cache model (presence and timing, not data).

The attacks only need the cache to answer "would this load hit, and at
which level?" and to support ``clflush`` — the Flush+Reload covert channel
(:mod:`repro.attacks.flush_reload`) is built from exactly those two
operations.  Data correctness is the job of
:class:`repro.mem.physical.PhysicalMemory`.

Sets are allocated on first fill, not up front: a 32 MiB L3 has 32,768
sets, and building all of them made cache construction most of the
cost of a fresh :class:`repro.cpu.machine.Machine` — while a typical
program touches a few dozen lines.  A set that was never filled reads
as empty, so hit/miss results, LRU order and stats are unchanged.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.errors import ConfigError

__all__ = ["Cache", "CacheStats"]


class CacheStats:
    """Hit/miss/eviction counters for one cache."""

    __slots__ = ("hits", "misses", "evictions", "flushes")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.flushes = 0

    def __repr__(self) -> str:
        return (
            f"CacheStats(hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions})"
        )


class Cache:
    """Set-associative, LRU-replaced cache keyed by physical line address."""

    def __init__(
        self,
        name: str,
        size_bytes: int,
        ways: int,
        line_size: int = 64,
    ) -> None:
        if line_size & (line_size - 1):
            raise ConfigError(f"line size must be a power of two: {line_size}")
        if size_bytes % (ways * line_size):
            raise ConfigError(
                f"{name}: size {size_bytes} not divisible by ways*line_size"
            )
        self.name = name
        self.size_bytes = size_bytes
        self.ways = ways
        self.line_size = line_size
        self.sets = size_bytes // (ways * line_size)
        if self.sets & (self.sets - 1):
            raise ConfigError(f"{name}: set count must be a power of two")
        # set index -> LRU-ordered lines; a set exists once filled.
        self._lines: dict[int, OrderedDict[int, None]] = {}
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    def _index(self, paddr: int) -> tuple[int, int]:
        line = paddr // self.line_size
        return line % self.sets, line

    def access(self, paddr: int) -> bool:
        """Touch the line holding ``paddr``; returns True on hit.

        A miss fills the line (evicting LRU if the set is full).
        """
        set_index, line = self._index(paddr)
        bucket = self._lines.get(set_index)
        if bucket is None:
            bucket = self._lines[set_index] = OrderedDict()
        elif line in bucket:
            bucket.move_to_end(line)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        if len(bucket) >= self.ways:
            bucket.popitem(last=False)
            self.stats.evictions += 1
        bucket[line] = None
        return False

    def contains(self, paddr: int) -> bool:
        """Presence probe that does not disturb recency or stats."""
        set_index, line = self._index(paddr)
        bucket = self._lines.get(set_index)
        return bucket is not None and line in bucket

    def flush_line(self, paddr: int) -> bool:
        """``clflush``: drop the line if present; returns whether it was."""
        set_index, line = self._index(paddr)
        bucket = self._lines.get(set_index)
        self.stats.flushes += 1
        if bucket is not None and line in bucket:
            del bucket[line]
            return True
        return False

    def flush_all(self) -> None:
        self._lines.clear()

    @property
    def occupancy(self) -> int:
        return sum(len(bucket) for bucket in self._lines.values())

    def __repr__(self) -> str:
        return (
            f"Cache({self.name!r}, {self.size_bytes >> 10} KiB, "
            f"{self.ways}-way, occupancy={self.occupancy})"
        )
