"""PSFP — the Predictive Store Forwarding Predictor (paper Section III-D.1).

Organization recovered by the paper:

* 12 entries, fully associative;
* each entry holds the counters ``C0``, ``C1``, ``C2``;
* each entry is tagged by *two* 12-bit hashed IPAs — the store's and the
  load's (:mod:`repro.core.hashfn`);
* the whole structure is flushed on a context switch (AMD's own security
  analysis of PSF, confirmed in Section IV-A).

The abrupt eviction threshold in Fig 5 (never evicted below 12 priming
entries, always evicted at 12) implies LRU-like replacement, which we use.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.errors import ConfigError

__all__ = ["PSFP_ENTRIES", "PsfpEntry", "Psfp"]

#: Number of entries recovered by the eviction experiment (Fig 5).
PSFP_ENTRIES = 12


@dataclass
class PsfpEntry:
    """One PSFP entry: two hashed-IPA tags and three counters."""

    store_tag: int
    load_tag: int
    c0: int = 0
    c1: int = 0
    c2: int = 0

    @property
    def key(self) -> tuple[int, int]:
        return (self.store_tag, self.load_tag)

    @property
    def trained(self) -> bool:
        return self.c0 > 0 or self.c1 > 0 or self.c2 > 0


class Psfp:
    """A fully associative, LRU-replaced table of :class:`PsfpEntry`.

    Lookups are keyed by the pair ``(store_hash, load_hash)``.  A miss
    reads as all-zero counters (the Initialize state); entries are
    allocated lazily when a transition leaves non-zero counters behind and
    freed when the counters decay back to zero, so occupancy reflects the
    number of *trained* store-load pairs — the quantity the paper's
    eviction-set experiment measures.
    """

    def __init__(self, entries: int = PSFP_ENTRIES) -> None:
        if entries < 1:
            raise ConfigError(f"PSFP needs at least one entry, got {entries}")
        self.capacity = entries
        self._table: OrderedDict[tuple[int, int], PsfpEntry] = OrderedDict()
        self.evictions = 0

    def counters(self, store_hash: int, load_hash: int) -> tuple[int, int, int]:
        """Counter values for the pair; a miss reads as zeros.

        Same semantics as :meth:`lookup` (including the recency refresh),
        inlined because this sits on the per-racing-load hot path.
        """
        key = (store_hash, load_hash)
        entry = self._table.get(key)
        if entry is None:
            return (0, 0, 0)
        self._table.move_to_end(key)
        return (entry.c0, entry.c1, entry.c2)

    def update(
        self,
        store_hash: int,
        load_hash: int,
        c0: int,
        c1: int,
        c2: int,
        allocate: bool = True,
    ) -> None:
        """Write counters back, allocating or freeing the entry as needed.

        ``allocate=False`` models the hardware's learn-on-misprediction
        behaviour: an update for a pair with no live entry is dropped
        unless the caller marks the event as allocating (a type G event).
        """
        key = (store_hash, load_hash)
        entry = self._table.get(key)
        if c0 == 0 and c1 == 0 and c2 == 0:
            if entry is not None:
                del self._table[key]
            return
        if entry is None:
            if not allocate:
                return
            entry = PsfpEntry(store_tag=store_hash, load_tag=load_hash)
            if len(self._table) >= self.capacity:
                self._table.popitem(last=False)  # evict least recently used
                self.evictions += 1
            self._table[key] = entry
        else:
            self._table.move_to_end(key)
        entry.c0, entry.c1, entry.c2 = c0, c1, c2

    def contains(self, store_hash: int, load_hash: int) -> bool:
        """Presence check that does *not* disturb recency order."""
        return (store_hash, load_hash) in self._table

    def flush(self) -> int:
        """Drop every entry (context-switch semantics); returns count dropped."""
        dropped = len(self._table)
        self._table.clear()
        return dropped

    @property
    def occupancy(self) -> int:
        return len(self._table)

    def entries(self) -> list[PsfpEntry]:
        """Snapshot of live entries, least recently used first."""
        return list(self._table.values())

    def __repr__(self) -> str:
        return f"Psfp(occupancy={self.occupancy}/{self.capacity})"
