"""SSBP — the Speculative Store Bypass Predictor (paper Section III-D.2).

Organization recovered by the paper:

* entries hold the counters ``C3`` (6-bit stickiness) and ``C4`` (2-bit
  mispredicted-bypass event counter);
* an entry is selected by the 12-bit hashed IPA of the *load only*;
* the structure survives context switches (the root of Vulnerability 1);
* eviction is *gradual*: priming with 16 random entries evicts a trained
  entry slightly more than half the time, 32 entries about 90% of the time
  (Fig 5), so the selection function ``F2`` is more complex than a small
  fully associative buffer.

We model ``F2`` as a set-associative backing store: 8 sets x 2 ways,
indexed by a fold of the 12-bit hash, tagged by the full hash, LRU within
a set.  For ``k`` uniformly distributed priming tags the victim's set
receives ``Binomial(k, 1/8)`` inserts and the entry dies once its set sees
2 of them, giving an eviction probability of ~61% at ``k = 16`` and ~92%
at ``k = 32`` — the Fig 5 curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.core.hashfn import HASH_BITS
from repro.errors import ConfigError

__all__ = ["SSBP_SETS", "SSBP_WAYS", "SsbpEntry", "Ssbp", "set_index"]

#: Default backing-store geometry (DESIGN.md: chosen to fit the Fig 5 curve).
SSBP_SETS = 8
SSBP_WAYS = 2

_SET_BITS = 3


@lru_cache(maxsize=None)
def set_index(load_hash: int, sets: int = SSBP_SETS) -> int:
    """The selection function ``F2``: fold the 12-bit hash into a set index.

    Pure over a 12-bit domain and evaluated on every SSBP access, so it is
    memoized the same way :func:`repro.core.hashfn.ipa_hash` is.
    """
    folded = 0
    value = load_hash & ((1 << HASH_BITS) - 1)
    while value:
        folded ^= value & (sets - 1)
        value >>= _SET_BITS
    return folded % sets


@dataclass
class SsbpEntry:
    """One SSBP entry: the load-IPA hash tag and two counters."""

    load_tag: int
    c3: int = 0
    c4: int = 0

    @property
    def trained(self) -> bool:
        return self.c3 > 0 or self.c4 > 0


class Ssbp:
    """Set-associative table of :class:`SsbpEntry`, keyed by load-IPA hash.

    As with :class:`repro.core.psfp.Psfp`, a miss reads as zero counters,
    and entries whose counters decay to zero are freed.
    """

    def __init__(self, sets: int = SSBP_SETS, ways: int = SSBP_WAYS) -> None:
        if sets < 1 or ways < 1:
            raise ConfigError(f"bad SSBP geometry: {sets} sets x {ways} ways")
        self.sets = sets
        self.ways = ways
        # Each set is a small list in LRU order (least recent first).
        self._table: list[list[SsbpEntry]] = [[] for _ in range(sets)]
        self.evictions = 0

    @property
    def capacity(self) -> int:
        return self.sets * self.ways

    def _set_for(self, load_hash: int) -> list[SsbpEntry]:
        return self._table[set_index(load_hash, self.sets)]

    def counters(self, load_hash: int) -> tuple[int, int]:
        """Counter values ``(C3, C4)`` for the hash; a miss reads as zeros.

        Same semantics as :meth:`lookup` (including the recency refresh),
        inlined because this sits on the per-racing-load hot path.
        """
        bucket = self._table[set_index(load_hash, self.sets)]
        for position, entry in enumerate(bucket):
            if entry.load_tag == load_hash:
                bucket.append(bucket.pop(position))
                return (entry.c3, entry.c4)
        return (0, 0)

    def update(self, load_hash: int, c3: int, c4: int, allocate: bool = True) -> None:
        """Write counters back, allocating or freeing the entry as needed.

        As with :meth:`repro.core.psfp.Psfp.update`, ``allocate=False``
        drops updates for hashes with no live entry (non-allocating events).
        """
        bucket = self._set_for(load_hash)
        entry = None
        for position, candidate in enumerate(bucket):
            if candidate.load_tag == load_hash:
                entry = bucket.pop(position)
                break
        if c3 == 0 and c4 == 0:
            return  # freed (entry already popped if it existed)
        if entry is None:
            if not allocate:
                return
            entry = SsbpEntry(load_tag=load_hash)
            if len(bucket) >= self.ways:
                bucket.pop(0)  # evict least recently used in the set
                self.evictions += 1
        entry.c3, entry.c4 = c3, c4
        bucket.append(entry)

    def contains(self, load_hash: int) -> bool:
        """Presence check that does *not* disturb recency order."""
        return any(e.load_tag == load_hash for e in self._set_for(load_hash))

    def flush(self) -> int:
        """Drop every entry (only happens on process suspend); returns count."""
        dropped = sum(len(bucket) for bucket in self._table)
        for bucket in self._table:
            bucket.clear()
        return dropped

    @property
    def occupancy(self) -> int:
        return sum(len(bucket) for bucket in self._table)

    def entries(self) -> list[SsbpEntry]:
        """Snapshot of all live entries (set order, LRU first within a set)."""
        return [entry for bucket in self._table for entry in bucket]

    def __repr__(self) -> str:
        return f"Ssbp(occupancy={self.occupancy}/{self.capacity})"
