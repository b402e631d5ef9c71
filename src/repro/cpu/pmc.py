"""Performance Monitor Counters (paper Section III-B, Fig 2 events).

The paper attributes the eight execution types using five PMC events; the
pipeline increments the same events organically so the Fig 2 table can be
regenerated by running the microbenchmark and reading the counters.
"""

from __future__ import annotations

from collections import Counter

__all__ = ["PmcEvent", "Pmc"]


class PmcEvent:
    """Event mnemonics (named after the AMD PPR events the paper uses)."""

    SQ_STALL_TOKENS = "ls_dispatch_tokens.sq1_stall"
    STLF = "ls_stlf"
    LD_DISPATCH = "ls_dispatch.ld_dispatch"
    ITLB_HIT_4K = "bp_l1_tlb_fetch_hit.if4k"
    RETIRED_OPS = "ex_ret_ops"
    ROLLBACK = "resync_or_nuke"

    ALL = (SQ_STALL_TOKENS, STLF, LD_DISPATCH, ITLB_HIT_4K, RETIRED_OPS, ROLLBACK)


class Pmc:
    """A bank of monotonically increasing event counters with snapshots."""

    def __init__(self) -> None:
        #: The raw counter bank.  Public on purpose: the pipeline's
        #: dispatch loop increments ``counts[event] += 1`` directly to
        #: skip the method-call overhead of :meth:`add` on its hottest
        #: event (see docs/performance.md); both routes are equivalent.
        self.counts: Counter[str] = Counter()

    def add(self, event: str, amount: int = 1) -> None:
        self.counts[event] += amount

    def read(self, event: str) -> int:
        return self.counts[event]

    def perturb(self, event: str) -> None:
        """Sampling skid: one spurious count on ``event``.

        Real PMCs over-count by a few events per million under interrupt
        skid; the interference model injects this so PMC-driven analyses
        (the Fig 2 attribution, the revng classifier) are exercised
        against imperfect counters rather than oracle ones.
        """
        self.counts[event] += 1

    def snapshot(self) -> dict[str, int]:
        return {event: self.counts[event] for event in PmcEvent.ALL}

    def delta_since(self, snapshot: dict[str, int]) -> dict[str, int]:
        """Per-event difference against an earlier :meth:`snapshot`."""
        return {
            event: self.counts[event] - snapshot.get(event, 0)
            for event in PmcEvent.ALL
        }

    def __repr__(self) -> str:
        return f"Pmc({dict(self.counts)})"
