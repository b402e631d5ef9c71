"""Saturating counters and the five-counter predictor state.

The speculative memory access predictors recovered by the paper are built
from five saturating counters (TABLE I):

========  =======  ==========================================================
Counter   Width    Role
========  =======  ==========================================================
``C0``    3 bits   Aliasing confidence for a (store IPA, load IPA) pair.
                   Prediction is "aliasing" while ``C0 > 0`` (jointly with
                   ``C3``).  Set to 4 by a mispredicted bypass (type G).
``C1``    5 bits   PSF-enable gate.  Predictive store forwarding is allowed
                   only while ``C1 <= 12``; ``C1`` rises by 4 on each
                   non-aliasing execution and falls by 1 on each aliasing
                   execution.
``C2``    2 bits   PSF aggressiveness budget; decremented when a predictive
                   forward turns out wrong (type D).  ``C2 = 0`` with
                   ``C0 > 0`` is the *block* state.
``C3``    6 bits   Aliasing stickiness shared per load IPA (SSBP).  While
                   ``C3 > 0`` the prediction stays "aliasing"; each
                   non-aliasing execution drains it by 1 (or 2 in the
                   PSF-enabled S2 state).
``C4``    2 bits   Mispredicted-bypass (type G) event counter per load IPA.
                   Once it saturates at 3, the next G event charges ``C3``
                   to 15 so that at least 15 non-aliasing executions are
                   needed to flip the prediction back.
========  =======  ==========================================================

``C0``–``C2`` live in a PSFP entry; ``C3``–``C4`` live in an SSBP entry.
This module only provides the value containers; the transition rules are in
:mod:`repro.core.state_machine`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = [
    "C0_MAX",
    "C1_MAX",
    "C2_MAX",
    "C3_MAX",
    "C4_MAX",
    "CounterState",
    "clamp",
]

#: Upper bounds for each counter.  The paper gives ``C0 <= 4`` (TABLE I
#: footnote *), ``C3 <= 32`` (footnote **) and 2-bit ``C4`` (TABLE IV);
#: ``C1``/``C2`` bounds are our documented conventions (DESIGN.md section 2).
C0_MAX = 4
C1_MAX = 31
C2_MAX = 3
C3_MAX = 32
C4_MAX = 3


def clamp(value: int, lo: int, hi: int) -> int:
    """Clamp ``value`` into the inclusive range [``lo``, ``hi``]."""
    if value < lo:
        return lo
    if value > hi:
        return hi
    return value


@dataclass(frozen=True, slots=True)
class CounterState:
    """An immutable snapshot of the five predictor counters.

    The state machine transition function consumes and produces values of
    this type.  All constructors clamp, so any ``CounterState`` is valid.
    (``slots=True`` because predictor updates allocate one of these per
    store-load pair — the hottest allocation in the simulator after the
    pipeline's own records.)
    """

    c0: int = 0
    c1: int = 0
    c2: int = 0
    c3: int = 0
    c4: int = 0

    def __post_init__(self) -> None:
        # In-range values (the overwhelmingly common case: every TABLE I
        # transition moves counters by small steps) skip the frozen-slot
        # rewrite entirely; only out-of-range fields pay a __setattr__.
        if not 0 <= self.c0 <= C0_MAX:
            object.__setattr__(self, "c0", clamp(self.c0, 0, C0_MAX))
        if not 0 <= self.c1 <= C1_MAX:
            object.__setattr__(self, "c1", clamp(self.c1, 0, C1_MAX))
        if not 0 <= self.c2 <= C2_MAX:
            object.__setattr__(self, "c2", clamp(self.c2, 0, C2_MAX))
        if not 0 <= self.c3 <= C3_MAX:
            object.__setattr__(self, "c3", clamp(self.c3, 0, C3_MAX))
        if not 0 <= self.c4 <= C4_MAX:
            object.__setattr__(self, "c4", clamp(self.c4, 0, C4_MAX))

    def with_updates(self, **changes: int) -> "CounterState":
        """Return a copy with the given counters replaced (and clamped)."""
        return replace(self, **changes)

    def as_tuple(self) -> tuple[int, int, int, int, int]:
        return (self.c0, self.c1, self.c2, self.c3, self.c4)

    def __str__(self) -> str:
        return f"(C0={self.c0}, C1={self.c1}, C2={self.c2}, C3={self.c3}, C4={self.c4})"
