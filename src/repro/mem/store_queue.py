"""The store queue (store buffer) of one hardware thread.

Holds stores that have been dispatched but not yet committed to memory.
A store's *data address* may become known cycles after dispatch (address
generation fed by a multiply chain or a cache-missing load — exactly the
delays the paper uses to open transient windows).  Until then the store
is *unresolved* and younger loads must either wait, bypass it (SSB) or
receive its data predictively (PSF) — decisions taken by the predictors,
not by this queue.

The queue itself provides only architectural mechanics: ordering,
overlap tests and commit to physical memory.  The load path scans the
live entry list itself (:meth:`StoreQueue.live_entries`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SimulationLimitExceeded
from repro.mem.physical import PhysicalMemory

__all__ = ["StoreEntry", "StoreQueue"]


@dataclass(slots=True)
class StoreEntry:
    """One in-flight store."""

    seq: int                 # program-order sequence number
    paddr: int               # actual physical data address (simulator-known)
    size: int                # bytes
    data: bytes              # store payload
    addr_ready: int          # cycle when address generation completes
    data_ready: int          # cycle when the payload is available
    store_ipa: int           # instruction physical address of the store
    committed: bool = False
    #: Loads that executed against this store while it was unresolved;
    #: resolved by the pipeline when the address becomes ready.
    speculated_loads: list = field(default_factory=list)

    def overlaps(self, paddr: int, size: int) -> bool:
        return self.paddr < paddr + size and paddr < self.paddr + self.size

    def covers(self, paddr: int, size: int) -> bool:
        return self.paddr <= paddr and paddr + size <= self.paddr + self.size


class StoreQueue:
    """Bounded, program-ordered queue of :class:`StoreEntry`."""

    def __init__(self, capacity: int = 64) -> None:
        self.capacity = capacity
        self._entries: list[StoreEntry] = []

    def __len__(self) -> int:
        return len(self._entries)

    def push(self, entry: StoreEntry) -> None:
        if len(self._entries) >= self.capacity:
            raise SimulationLimitExceeded(
                f"store queue full ({self.capacity} entries); "
                "commit older stores before dispatching more"
            )
        if self._entries and entry.seq <= self._entries[-1].seq:
            raise ValueError("stores must be pushed in program order")
        self._entries.append(entry)

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------
    def commit_ready(
        self, memory: PhysicalMemory, now: int, max_seq: int | None = None
    ) -> list[StoreEntry]:
        """Commit (in order) every store whose address and data are ready.

        ``max_seq`` bounds commitment to stores at or before that program
        position — the pipeline passes an open transient window's base so
        wrong-path stores can never reach memory.
        """
        committed: list[StoreEntry] = []
        while self._entries:
            head = self._entries[0]
            if head.addr_ready > now or head.data_ready > now:
                break
            if max_seq is not None and head.seq > max_seq:
                break
            memory.write(head.paddr, head.data)
            head.committed = True
            committed.append(self._entries.pop(0))
        return committed

    def drain(self, memory: PhysicalMemory) -> list[StoreEntry]:
        """Commit everything regardless of readiness (pipeline quiesce)."""
        drained = []
        for entry in self._entries:
            memory.write(entry.paddr, entry.data)
            entry.committed = True
            drained.append(entry)
        self._entries.clear()
        return drained

    def squash_younger(self, seq: int) -> list[StoreEntry]:
        """Drop uncommitted stores younger than ``seq`` (rollback).

        Slice-assignment keeps the internal list's identity stable so
        :meth:`live_entries` references held across a squash stay valid.
        """
        squashed = [e for e in self._entries if e.seq > seq]
        self._entries[:] = [e for e in self._entries if e.seq <= seq]
        return squashed

    def entries(self) -> list[StoreEntry]:
        return list(self._entries)

    def live_entries(self) -> list[StoreEntry]:
        """The internal entry list itself — NOT a copy.

        The pipeline reads this once per scheduling step, so the defensive
        copy in :meth:`entries` was the single largest allocation site in
        a run.  Callers must treat the list as read-only; it stays
        identity-stable across pushes, commits and squashes.
        """
        return self._entries

    def __repr__(self) -> str:
        return f"StoreQueue({len(self._entries)}/{self.capacity})"
