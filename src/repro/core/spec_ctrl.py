"""The ``SPEC_CTRL`` model-specific register (paper Section VI-A).

Two bits matter for this study:

* bit 2 — **SSBD** (Speculative Store Bypass Disable).  When set, every
  load is serialized behind preceding stores: the predictors behave as if
  pinned in the Block state (``phi(n) = E``, ``phi(a) = A``), no counter
  updates occur, and no exploitable transient window exists.  This is the
  effective (but expensive) mitigation.
* bit 7 — **PSFD** (Predictive Store Forwarding Disable).  The paper finds
  that on all four tested platforms the predictors *continue to function*
  with PSFD set, so the attacks are not mitigated.  We model PSFD
  faithfully as observable-but-ineffective.
"""

from __future__ import annotations

__all__ = ["SSBD_BIT", "PSFD_BIT", "SpecCtrl"]

SSBD_BIT = 2
PSFD_BIT = 7


class SpecCtrl:
    """A per-core SPEC_CTRL register with named accessors for SSBD/PSFD."""

    def __init__(self) -> None:
        self.value = 0

    @property
    def ssbd(self) -> bool:
        return bool(self.value >> SSBD_BIT & 1)

    @ssbd.setter
    def ssbd(self, enabled: bool) -> None:
        self._set_bit(SSBD_BIT, enabled)

    @property
    def psfd(self) -> bool:
        return bool(self.value >> PSFD_BIT & 1)

    @psfd.setter
    def psfd(self, enabled: bool) -> None:
        self._set_bit(PSFD_BIT, enabled)

    def _set_bit(self, bit: int, enabled: bool) -> None:
        if enabled:
            self.value |= 1 << bit
        else:
            self.value &= ~(1 << bit)

    def __repr__(self) -> str:
        return f"SpecCtrl(ssbd={self.ssbd}, psfd={self.psfd})"
