"""A simulated Zen 3 physical core.

The core owns what is shared between its SMT threads — the data-cache
hierarchy, the SPEC_CTRL register, physical memory — and instantiates one
:class:`HardwareThread` (predictors, store queue, PMCs) per SMT
thread.  A deterministic RNG drives timer noise and any randomized
replacement so experiments are reproducible run to run.
"""

from __future__ import annotations

import random

from repro.core.config import CpuModel, default_model
from repro.core.spec_ctrl import SpecCtrl
from repro.cpu.thread import HardwareThread
from repro.errors import ConfigError
from repro.mem.hierarchy import MemoryHierarchy
from repro.mem.physical import PhysicalMemory

__all__ = ["Core"]


class Core:
    """One physical core plus the memory system behind it."""

    def __init__(
        self,
        model: CpuModel | None = None,
        seed: int = 0,
        hash_salt: int = 0,
    ) -> None:
        self.model = model or default_model()
        self.memory = PhysicalMemory()
        self.rng = random.Random(seed)
        self.spec_ctrl = SpecCtrl()
        self.hierarchy = MemoryHierarchy(self.model.latency)
        self.hash_salt = hash_salt
        self.threads = [
            HardwareThread(i, self.model, self.spec_ctrl, hash_salt=hash_salt)
            for i in range(self.model.smt_threads)
        ]

    def thread(self, thread_id: int = 0) -> HardwareThread:
        try:
            return self.threads[thread_id]
        except IndexError:
            raise ConfigError(
                f"core has {len(self.threads)} SMT threads, no thread {thread_id}"
            ) from None

    def jitter(self, cycles: int) -> int:
        """An RDPRU-style reading of ``cycles``: the model's bounded timer
        noise, one draw from :attr:`rng` when the model has any."""
        noise = self.model.timer_noise
        if not noise:
            return cycles
        return max(0, round(cycles * (1.0 + self.rng.uniform(-noise, noise))))

    def set_ssbd(self, enabled: bool) -> None:
        """Write the SSBD bit of SPEC_CTRL (Section VI-A)."""
        self.spec_ctrl.ssbd = enabled

    def set_psfd(self, enabled: bool) -> None:
        """Write the PSFD bit (observable but ineffective, Section VI-A)."""
        self.spec_ctrl.psfd = enabled

    def __repr__(self) -> str:
        return (
            f"Core(model={self.model.name!r}, threads={len(self.threads)}, "
            f"ssbd={self.spec_ctrl.ssbd})"
        )
