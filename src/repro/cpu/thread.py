"""A hardware (SMT) thread: the per-thread slice of a Zen 3 core.

Section IV-A finds that both PSFP and SSBP are *partitioned* between the
two SMT threads of a physical core (likely duplicated, since switching to
single-thread mode does not change the observed sizes).  We model that by
giving every hardware thread its own :class:`PredictorUnit` and store
queue; the cache hierarchy and physical memory are core-(and system-)
shared.
"""

from __future__ import annotations

from repro.core.config import CpuModel
from repro.core.predictor_unit import PredictorUnit
from repro.core.spec_ctrl import SpecCtrl
from repro.cpu.pmc import Pmc
from repro.mem.store_queue import StoreQueue

__all__ = ["HardwareThread"]


class HardwareThread:
    """One SMT thread: predictors, store queue, PMCs, current process."""

    def __init__(
        self,
        thread_id: int,
        model: CpuModel,
        spec_ctrl: SpecCtrl,
        hash_salt: int = 0,
    ) -> None:
        self.thread_id = thread_id
        self.model = model
        self.spec_ctrl = spec_ctrl
        self.unit = PredictorUnit(model, spec_ctrl, hash_salt=hash_salt)
        self.store_queue = StoreQueue(model.store_queue_entries)
        self.pmc = Pmc()
        #: pid of the process currently scheduled here (None when idle).
        self.current_pid: int | None = None
        #: Monotonic cycle counter read by RDPRU.
        self.cycles = 0
        #: Involuntary context switches this thread has absorbed
        #: (bumped by :meth:`repro.osm.kernel.Kernel.preempt`).
        self.preemptions = 0

    def advance(self, cycles: int) -> None:
        if cycles < 0:
            raise ValueError("time only moves forward")
        self.cycles += cycles

    def on_context_switch(self, next_pid: int | None, flush_ssbp: bool = False) -> None:
        """Kernel hook: flush PSFP (and optionally SSBP), note the new pid."""
        self.unit.on_context_switch(flush_ssbp=flush_ssbp)
        self.current_pid = next_pid

    def on_suspend(self) -> None:
        """Kernel hook for ``sleep``: both predictors are flushed."""
        self.unit.on_suspend()

    def __repr__(self) -> str:
        return (
            f"HardwareThread(id={self.thread_id}, pid={self.current_pid}, "
            f"cycles={self.cycles})"
        )
