"""Unit tests for the PSFP table (12-entry fully associative, LRU)."""

import pytest

from repro.core.psfp import PSFP_ENTRIES, Psfp
from repro.errors import ConfigError


def trained(psfp: Psfp, store: int, load: int) -> None:
    psfp.update(store, load, c0=4, c1=16, c2=2)


class TestBasics:
    def test_default_capacity_matches_paper(self):
        assert Psfp().capacity == PSFP_ENTRIES == 12

    def test_bad_capacity_rejected(self):
        with pytest.raises(ConfigError):
            Psfp(entries=0)

    def test_miss_reads_zero(self):
        assert Psfp().counters(1, 2) == (0, 0, 0)

    def test_update_then_read(self):
        psfp = Psfp()
        psfp.update(1, 2, 4, 16, 2)
        assert psfp.counters(1, 2) == (4, 16, 2)

    def test_keyed_by_both_tags(self):
        psfp = Psfp()
        psfp.update(1, 2, 4, 16, 2)
        assert psfp.counters(2, 1) == (0, 0, 0)
        assert psfp.counters(1, 3) == (0, 0, 0)
        assert psfp.counters(3, 2) == (0, 0, 0)

    def test_zero_write_frees_entry(self):
        psfp = Psfp()
        psfp.update(1, 2, 4, 16, 2)
        psfp.update(1, 2, 0, 0, 0)
        assert psfp.occupancy == 0

    def test_flush_reports_count(self):
        psfp = Psfp()
        trained(psfp, 1, 1)
        trained(psfp, 2, 2)
        assert psfp.flush() == 2
        assert psfp.occupancy == 0

    def test_non_allocating_update_dropped(self):
        psfp = Psfp()
        psfp.update(1, 2, 0, 4, 0, allocate=False)
        assert psfp.occupancy == 0
        assert psfp.counters(1, 2) == (0, 0, 0)

    def test_non_allocating_update_applies_to_live_entry(self):
        psfp = Psfp()
        trained(psfp, 1, 2)
        psfp.update(1, 2, 3, 20, 2, allocate=False)
        assert psfp.counters(1, 2) == (3, 20, 2)


class TestLruEviction:
    def test_eviction_below_capacity_never_happens(self):
        psfp = Psfp()
        trained(psfp, 0, 0)  # the base entry
        for k in range(1, PSFP_ENTRIES):  # 11 more entries fills the table
            trained(psfp, k, k)
        assert psfp.contains(0, 0)
        assert psfp.evictions == 0

    def test_twelfth_new_entry_evicts_the_base(self):
        """Fig 5: PSFP eviction is abrupt at eviction size 12."""
        psfp = Psfp()
        trained(psfp, 0, 0)
        for k in range(1, PSFP_ENTRIES + 1):  # 12 distinct priming entries
            trained(psfp, k, k)
        assert not psfp.contains(0, 0)
        assert psfp.evictions == 1

    def test_lookup_refreshes_recency(self):
        psfp = Psfp(entries=2)
        trained(psfp, 0, 0)
        trained(psfp, 1, 1)
        psfp.counters(0, 0)  # the read makes the base most recent
        trained(psfp, 2, 2)  # evicts (1, 1), not the base
        assert psfp.contains(0, 0)
        assert not psfp.contains(1, 1)

    def test_contains_does_not_refresh(self):
        psfp = Psfp(entries=2)
        trained(psfp, 0, 0)
        trained(psfp, 1, 1)
        psfp.contains(0, 0)  # must NOT touch recency
        trained(psfp, 2, 2)
        assert not psfp.contains(0, 0)

    def test_occupancy_never_exceeds_capacity(self):
        psfp = Psfp()
        for k in range(50):
            trained(psfp, k, k)
        assert psfp.occupancy == PSFP_ENTRIES

    def test_entries_snapshot_lru_order(self):
        psfp = Psfp()
        trained(psfp, 1, 1)
        trained(psfp, 2, 2)
        snapshot = psfp.entries()
        assert [e.key for e in snapshot] == [(1, 1), (2, 2)]

    def test_repr_shows_occupancy(self):
        psfp = Psfp()
        trained(psfp, 1, 1)
        assert "1/12" in repr(psfp)
