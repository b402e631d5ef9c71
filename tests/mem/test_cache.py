"""Unit tests for the set-associative cache model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.mem.cache import Cache


def small_cache(ways: int = 2, sets: int = 4, line: int = 64) -> Cache:
    return Cache("test", size_bytes=ways * sets * line, ways=ways, line_size=line)


class TestGeometry:
    def test_set_count(self):
        assert small_cache(ways=2, sets=4).sets == 4

    def test_non_power_of_two_sets_rejected(self):
        with pytest.raises(ConfigError):
            Cache("bad", size_bytes=3 * 64 * 2, ways=2)

    def test_non_power_of_two_line_rejected(self):
        with pytest.raises(ConfigError):
            Cache("bad", size_bytes=1024, ways=2, line_size=48)

    def test_indivisible_size_rejected(self):
        with pytest.raises(ConfigError):
            Cache("bad", size_bytes=1000, ways=2, line_size=64)


class TestAccess:
    def test_first_access_misses(self):
        cache = small_cache()
        assert cache.access(0x40) is False

    def test_second_access_hits(self):
        cache = small_cache()
        cache.access(0x40)
        assert cache.access(0x40) is True

    def test_same_line_different_bytes_hit(self):
        cache = small_cache()
        cache.access(0x40)
        assert cache.access(0x7F) is True

    def test_adjacent_lines_are_distinct(self):
        cache = small_cache()
        cache.access(0x40)
        assert cache.access(0x80) is False

    def test_stats(self):
        cache = small_cache()
        cache.access(0)
        cache.access(0)
        cache.access(64)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 2


class TestEviction:
    def test_lru_eviction_within_set(self):
        cache = small_cache(ways=2, sets=4)
        stride = 4 * 64  # same set, different tags
        cache.access(0 * stride)
        cache.access(1 * stride)
        cache.access(2 * stride)  # evicts the first
        assert not cache.contains(0 * stride)
        assert cache.contains(1 * stride)
        assert cache.contains(2 * stride)
        assert cache.stats.evictions == 1

    def test_touch_refreshes_lru(self):
        cache = small_cache(ways=2, sets=4)
        stride = 4 * 64
        cache.access(0 * stride)
        cache.access(1 * stride)
        cache.access(0 * stride)  # refresh
        cache.access(2 * stride)  # evicts 1, not 0
        assert cache.contains(0)
        assert not cache.contains(1 * stride)

    def test_different_sets_do_not_interfere(self):
        cache = small_cache(ways=1, sets=4)
        cache.access(0 * 64)
        cache.access(1 * 64)
        assert cache.contains(0)
        assert cache.contains(64)


class TestFlush:
    def test_flush_line(self):
        cache = small_cache()
        cache.access(0x40)
        assert cache.flush_line(0x40) is True
        assert not cache.contains(0x40)

    def test_flush_absent_line(self):
        assert small_cache().flush_line(0x40) is False

    def test_flush_all(self):
        cache = small_cache()
        for i in range(8):
            cache.access(i * 64)
        cache.flush_all()
        assert cache.occupancy == 0

    def test_contains_does_not_touch_stats(self):
        cache = small_cache()
        cache.access(0)
        before = (cache.stats.hits, cache.stats.misses)
        cache.contains(0)
        assert (cache.stats.hits, cache.stats.misses) == before


class TestLazySets:
    def test_untouched_set_reads_empty(self):
        cache = small_cache()
        assert cache.contains(0x40) is False
        assert cache.flush_line(0x40) is False
        assert cache.occupancy == 0
        assert cache.stats.flushes == 1

    def test_fresh_l3_is_empty(self):
        l3 = Cache("L3", size_bytes=32 << 20, ways=16)
        assert l3.sets == 32768
        assert l3.occupancy == 0
        assert l3.contains(0) is False


class ReferenceLru:
    """Per-set lists, least recently used first: the model being pinned."""

    def __init__(self, ways: int, sets: int, line: int) -> None:
        self.ways, self.sets, self.line = ways, sets, line
        self.buckets: list[list[int]] = [[] for _ in range(sets)]
        self.hits = self.misses = self.evictions = self.flushes = 0

    def _bucket(self, paddr: int) -> tuple[list[int], int]:
        line = paddr // self.line
        return self.buckets[line % self.sets], line

    def access(self, paddr: int) -> bool:
        bucket, line = self._bucket(paddr)
        if line in bucket:
            bucket.remove(line)
            bucket.append(line)
            self.hits += 1
            return True
        self.misses += 1
        if len(bucket) >= self.ways:
            bucket.pop(0)
            self.evictions += 1
        bucket.append(line)
        return False

    def contains(self, paddr: int) -> bool:
        bucket, line = self._bucket(paddr)
        return line in bucket

    def flush_line(self, paddr: int) -> bool:
        bucket, line = self._bucket(paddr)
        self.flushes += 1
        if line in bucket:
            bucket.remove(line)
            return True
        return False

    def flush_all(self) -> None:
        for bucket in self.buckets:
            bucket.clear()

    @property
    def occupancy(self) -> int:
        return sum(len(bucket) for bucket in self.buckets)


# Weighted towards fills and probes, so sets fill up and evict between
# the (rarer) whole-cache flushes; 6 lines make the sets conflict.
_OPS = st.tuples(
    st.sampled_from(
        ["access"] * 6 + ["contains"] * 3 + ["flush_line", "occupancy", "flush_all"]
    ),
    st.integers(min_value=0, max_value=6 * 64 - 1),
)


@given(
    ways=st.sampled_from([1, 2, 3]),
    sets=st.sampled_from([1, 2, 4]),
    ops=st.lists(_OPS, min_size=10, max_size=80),
)
def test_cache_matches_reference_lru(ways, sets, ops):
    cache, model = small_cache(ways=ways, sets=sets), ReferenceLru(ways, sets, 64)
    for op, paddr in ops:
        if op == "flush_all":
            assert cache.flush_all() is model.flush_all()
        elif op == "occupancy":
            assert cache.occupancy == model.occupancy
        else:
            assert getattr(cache, op)(paddr) is getattr(model, op)(paddr)
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.evictions, stats.flushes) == (
            model.hits, model.misses, model.evictions, model.flushes
        )
    assert cache.occupancy == model.occupancy
