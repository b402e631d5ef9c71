"""Speculative-window enumeration over the IR.

Two window families, matching the two transient mechanisms the dynamic
stack models:

* **store-bypass edges** — for every load, every older store whose
  address may still be unresolved when the load dispatches and with no
  serializing ``Mfence`` in between.  Each edge carries the predictor
  preconditions required to realize it, phrased in terms of the TABLE I
  counter state machine (:mod:`repro.core.state_machine`): a *bypass*
  (the load reads stale memory around the store) needs the SSBP to
  predict non-aliasing, a *PSF forward* (the load receives the store's
  data before the store's address exists) needs the PSFP armed.
* **branch transient windows** — for every ``Jz``, the forward span the
  pipeline can execute on the wrong path before the branch resolves.

Statically every older unfenced store counts as "may be unresolved":
the pipeline delays address generation behind arbitrary ``Imul`` chains
and cache misses, so no syntactic test can bound resolution time from
below.  Over-approximating here is what keeps the scanner sound with
respect to the dynamic two-fill oracle (see :mod:`repro.static.crossval`).

Mitigations kill edges the same way they do dynamically: under ``ssbd``
loads wait for every older store address (no bypass, no PSF — the
machine-level chicken bit), and under ``fence`` the
:func:`repro.mitigations.fences.fence_after_stores` transform has
already placed an ``Mfence`` after every store, which the fence scan
below observes directly.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from repro.core.counters import CounterState
from repro.core.state_machine import (
    PSF_C1_THRESHOLD,
    StateName,
    classify_state,
    predict,
)
from repro.static.ir import IRProgram

__all__ = [
    "BypassEdge",
    "BranchWindow",
    "bypass_edges",
    "branch_windows",
    "bypass_preconditions",
    "psf_preconditions",
    "window_nodes",
]


def _nonalias_example() -> CounterState:
    """A counter state whose prediction realizes a bypass (sanity-checked)."""
    state = CounterState(c0=0, c1=0, c2=1, c3=0, c4=0)  # Load-From-Cache
    assert not predict(state).aliasing
    return state


def _psf_example() -> CounterState:
    """A counter state whose prediction realizes a PSF forward."""
    state = CounterState(c0=4, c1=8, c2=2, c3=0, c4=0)  # S1, PSF enabled
    assert predict(state).psf_forward
    return state


@lru_cache(maxsize=None)
def bypass_preconditions() -> tuple[str, ...]:
    """TABLE I preconditions for a store-bypass (stale-load) edge."""
    name = classify_state(_nonalias_example())
    return (
        "ssbp-predicts-nonalias: C0=0 and C3=0 "
        f"(e.g. TABLE I state '{name.value}'); reachable by training the "
        "entry with non-aliasing pairs or via a cold/evicted entry",
    )


@lru_cache(maxsize=None)
def psf_preconditions() -> tuple[str, ...]:
    """TABLE I preconditions for a predictive-store-forward edge."""
    name = classify_state(_psf_example())
    return (
        f"psfp-armed: C0>0, C1<={PSF_C1_THRESHOLD}, C2>0 "
        f"(TABLE I states '{StateName.S1_PSF_ENABLED.value}' or "
        f"'{StateName.S2_PSF_ENABLED.value}'; e.g. '{name.value}'); "
        "reached after a G event trains the entry",
    )


class BypassEdge(NamedTuple):
    """One potential store→load transient interaction.

    A named tuple rather than a frozen dataclass: a scan builds one per
    unfenced store/load pair, and a tuple is several times cheaper.
    """

    store: int                     # node index of the older store
    load: int                      # node index of the younger load
    kinds: tuple[str, ...]         # ("stl-bypass", "psf-forward")
    preconditions: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "store": self.store,
            "load": self.load,
            "kinds": list(self.kinds),
            "preconditions": list(self.preconditions),
        }


@dataclass(frozen=True)
class BranchWindow:
    """The transient span a mispredicted ``Jz`` can execute."""

    branch: int                    # node index of the Jz
    start: int                     # first transient node (branch + 1)
    end: int                       # exclusive end (resolved target or len)

    def contains(self, index: int) -> bool:
        return self.start <= index < self.end

    def to_dict(self) -> dict:
        return {"branch": self.branch, "start": self.start, "end": self.end}


def bypass_edges(ir: IRProgram, mitigation: str = "none") -> list[BypassEdge]:
    """Every (older store, younger load) pair not separated by a fence.

    Under ``ssbd`` and ``fence`` the result is empty by construction:
    SSBD pins every load behind all older store addresses at the machine
    level, and the fence mitigation's program transform serializes each
    store before any younger load can dispatch.  (A *manually* fenced
    program under ``none`` is handled by the fence scan itself.)
    """
    if mitigation in ("ssbd", "fence"):
        return []
    fences = ir.fences
    kinds = ("stl-bypass", "psf-forward")
    preconditions = bypass_preconditions() + psf_preconditions()
    edges: list[BypassEdge] = []
    for load in ir.loads:
        # The nearest Mfence at or before the load (-1 if none).
        nearest = bisect_right(fences, load) - 1
        barrier = fences[nearest] if nearest >= 0 else -1
        for store in ir.stores:
            if store >= load:
                break
            if store > barrier:
                edges.append(BypassEdge(store, load, kinds, preconditions))
    return edges


def branch_windows(ir: IRProgram) -> list[BranchWindow]:
    """The transient span of every branch.

    ``Jz`` only jumps forward in this ISA, so the wrong path of a
    predicted-not-taken branch is exactly ``(branch, target)``; an
    unresolved label (lazy lookup failure at runtime) conservatively
    opens the window to the end of the program.
    """
    windows = []
    for branch in ir.branches:
        target = ir.labels.get(ir.instructions[branch].label)
        end = len(ir) if target is None else target
        if end > branch + 1:
            windows.append(BranchWindow(branch=branch, start=branch + 1, end=end))
    return windows


def window_nodes(length: int, windows: list[BranchWindow]) -> frozenset[int]:
    """The nodes inside some branch's transient window.

    Such a node may be skipped architecturally, so its effects are only
    *possible*: the taint pass merges its defs, the gadget layer cites
    the branch precondition.
    """
    nodes: set[int] = set()
    for window in windows:
        nodes.update(range(window.start, min(window.end, length)))
    return frozenset(nodes)
