"""Unit tests for the SSBP table (8 sets x 2 ways, gradual eviction)."""

import random

import pytest

from repro.core.hashfn import HASH_BITS
from repro.core.ssbp import SSBP_SETS, SSBP_WAYS, Ssbp, set_index
from repro.errors import ConfigError


def trained(ssbp: Ssbp, load_hash: int, c3: int = 15, c4: int = 3) -> None:
    ssbp.update(load_hash, c3, c4)


class TestSetIndex:
    def test_in_range(self):
        for load_hash in range(1 << HASH_BITS):
            assert 0 <= set_index(load_hash) < SSBP_SETS

    def test_roughly_uniform(self):
        counts = [0] * SSBP_SETS
        for load_hash in range(1 << HASH_BITS):
            counts[set_index(load_hash)] += 1
        expected = (1 << HASH_BITS) / SSBP_SETS
        assert all(abs(c - expected) / expected < 0.01 for c in counts)

    def test_deterministic(self):
        assert set_index(0xABC) == set_index(0xABC)


class TestBasics:
    def test_default_geometry(self):
        ssbp = Ssbp()
        assert ssbp.capacity == SSBP_SETS * SSBP_WAYS == 16

    def test_bad_geometry_rejected(self):
        with pytest.raises(ConfigError):
            Ssbp(sets=0)
        with pytest.raises(ConfigError):
            Ssbp(ways=0)

    def test_miss_reads_zero(self):
        assert Ssbp().counters(5) == (0, 0)

    def test_update_then_read(self):
        ssbp = Ssbp()
        ssbp.update(5, 15, 3)
        assert ssbp.counters(5) == (15, 3)

    def test_keyed_by_full_hash_not_set(self):
        ssbp = Ssbp()
        # Find two hashes in the same set.
        a = 0
        b = next(h for h in range(1, 1 << HASH_BITS) if set_index(h) == set_index(a))
        ssbp.update(a, 10, 1)
        assert ssbp.counters(b) == (0, 0)

    def test_zero_write_frees_entry(self):
        ssbp = Ssbp()
        trained(ssbp, 5)
        ssbp.update(5, 0, 0)
        assert ssbp.occupancy == 0

    def test_c4_only_entry_is_kept(self):
        """C4 persists between G events even while C3 is zero."""
        ssbp = Ssbp()
        ssbp.update(5, 0, 2)
        assert ssbp.counters(5) == (0, 2)

    def test_flush(self):
        ssbp = Ssbp()
        trained(ssbp, 1)
        trained(ssbp, 2)
        assert ssbp.flush() == 2
        assert ssbp.occupancy == 0

    def test_non_allocating_update_dropped(self):
        ssbp = Ssbp()
        ssbp.update(5, 15, 0, allocate=False)
        assert ssbp.counters(5) == (0, 0)

    def test_non_allocating_update_applies_to_live_entry(self):
        ssbp = Ssbp()
        trained(ssbp, 5)
        ssbp.update(5, 14, 3, allocate=False)
        assert ssbp.counters(5) == (14, 3)


class TestEvictionWithinSet:
    def _same_set_hashes(self, count: int) -> list[int]:
        target = set_index(0)
        return [h for h in range(1 << HASH_BITS) if set_index(h) == target][:count]

    def test_third_entry_in_a_set_evicts_lru(self):
        ssbp = Ssbp()
        a, b, c = self._same_set_hashes(3)
        trained(ssbp, a)
        trained(ssbp, b)
        trained(ssbp, c)
        assert not ssbp.contains(a)
        assert ssbp.contains(b)
        assert ssbp.contains(c)
        assert ssbp.evictions == 1

    def test_lookup_refreshes_recency(self):
        ssbp = Ssbp()
        a, b, c = self._same_set_hashes(3)
        trained(ssbp, a)
        trained(ssbp, b)
        ssbp.lookup(a)
        trained(ssbp, c)
        assert ssbp.contains(a)
        assert not ssbp.contains(b)


class TestGradualEvictionCurve:
    """The Fig 5 SSBP property: >50% eviction at 16, ~90% at 32."""

    def _eviction_rate(
        self,
        prime_count: int,
        trials: int = 400,
        geometry: tuple[int, int] = (SSBP_SETS, SSBP_WAYS),
    ) -> float:
        rng = random.Random(1234 + prime_count)
        evicted = 0
        for _ in range(trials):
            ssbp = Ssbp(*geometry)
            base = rng.randrange(1 << HASH_BITS)
            trained(ssbp, base)
            primes = rng.sample(
                [h for h in range(1 << HASH_BITS) if h != base], prime_count
            )
            for h in primes:
                trained(ssbp, h)
            if not ssbp.contains(base):
                evicted += 1
        return evicted / trials

    def test_small_sets_rarely_evict(self):
        assert self._eviction_rate(4) < 0.25

    def test_sixteen_exceeds_half(self):
        assert self._eviction_rate(16) > 0.50

    def test_thirty_two_reaches_ninety_percent(self):
        assert self._eviction_rate(32) > 0.85

    def test_monotonically_harder_to_survive(self):
        rates = [self._eviction_rate(k, trials=250) for k in (4, 8, 16, 32)]
        assert rates == sorted(rates)

    def test_fully_associative_geometry_evicts_abruptly(self):
        """A 1 x 16 LRU table evicts every time at 16: the abrupt shape
        Fig 5 rules out for SSBP."""
        assert self._eviction_rate(16, geometry=(1, 16)) == 1.0
