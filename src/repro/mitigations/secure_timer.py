"""Secure-timer mitigation (paper Section VI-B).

Coarsening or jittering the user-visible timer denies the attacker the
cycle-level differences that make predictor state observable.  The
critical threshold is the stld timing-class margin: once the timer's
effective resolution exceeds the bypass-vs-stall gap, probing fails.
"""

from __future__ import annotations

import random

__all__ = ["SecureTimer"]


class SecureTimer:
    """Quantize readings to ``resolution`` cycles and add jitter.

    Attach to an :class:`repro.attacks.runtime.AttackerStld` via its
    ``timer`` parameter; with a resolution well above the stall/bypass
    gap (~45 cycles on the default model), the attacker's calibration
    and probes collapse.
    """

    def __init__(
        self,
        resolution: int = 256,
        jitter: int = 64,
        seed: int = 0,
    ) -> None:
        if resolution < 1:
            raise ValueError("resolution must be at least one cycle")
        self.resolution = resolution
        self.jitter = jitter
        self._rng = random.Random(seed)

    def __call__(self, cycles: int) -> int:
        noisy = cycles + self._rng.randint(-self.jitter, self.jitter)
        return max(0, noisy // self.resolution) * self.resolution
