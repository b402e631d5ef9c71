"""Unprivileged attacker runtime.

Everything here uses only what the paper's threat model grants a normal
user: mapping its own memory, placing its own code at chosen *virtual*
addresses, executing ``clflush``/``mfence``/``rdpru``, and timing its own
execution.  No physical addresses, no PTEditor, no pagemap.

:class:`AttackerStld` is an :class:`repro.revng.stld.StldRunner` (the
one stld runner, whose measured run is the attacker's RDPRU reading)
plus code-sliding placement and a self-calibrated timing classifier,
which is all the attacks need to observe predictor state from user
space.
"""

from __future__ import annotations

from functools import partial

from repro.core.exec_types import TimingClass
from repro.cpu.isa import Program
from repro.cpu.machine import Machine
from repro.errors import ReproError
from repro.mem.physical import PAGE_SIZE
from repro.osm.address_space import Perm
from repro.osm.process import Process
from repro.revng.stld import StldRunner, build_stld
from repro.revng.timing import (
    CalibrationResult,
    CentroidClassifier,
    collect_calibration,
)

__all__ = ["AttackerStld"]

#: What a non-aliasing probe shows while its SSBP entry's C3 is charged.
#: The probe's own PSFP pair is untrained, so either stall flavour is
#: C3-driven; accepting both also tolerates coarse timers that cannot
#: separate them (the browser case).
_STALL_CLASSES = (TimingClass.STALL_CACHE, TimingClass.STALL_FORWARD)
#: Robust calibrations retry with fresh slide spots until the
#: classifier's separability check clears this bar (best attempt wins if
#: none does — graceful degradation, not an abort).
_MIN_SEPARABILITY = 1.2
#: Slide spots per quiet calibration (a robust attempt uses twice as many).
_CALIBRATION_SPOTS = 3
#: Non-aliasing runs a C3 drain may take (C3 saturates at 32).
_DRAIN_BUDGET = 40
#: Aliasing runs :meth:`AttackerStld.train_psf` waits for a predictive forward.
_TRAIN_BUDGET = 24


class AttackerStld(StldRunner):
    """An attacker's stld probe kit inside one process.

    ``slide_pages`` executable pages are mapped for code sliding (before
    the runner's data buffer); probe programs can be placed at any byte
    offset inside them.  ``timer`` is the runner's optional measurement
    transform.
    """

    def __init__(
        self,
        machine: Machine,
        process: Process,
        thread_id: int = 0,
        slide_pages: int = 16,
        timer=None,
        template: Program | None = None,
        robust: bool | None = None,
    ) -> None:
        #: Whether the hardened measurement protocol is in effect, fixed
        #: here for the attacker's lifetime: ``robust=None`` follows the
        #: machine (robust exactly when a non-quiet interference model is
        #: attached); ``robust=False`` pins the historical protocol (the
        #: pre-hardening comparison arm).
        self.robust = machine.noisy if robust is None else robust
        #: The probe routine; a shorter stld (fewer delay/consumer
        #: multiplies) trades timing margin for probe throughput, which
        #: the full-space fingerprinting walk needs.
        self.template = template or build_stld()
        #: Consecutive bypass observations required before a drain is
        #: considered complete.  Jittery timers (the browser) misread an
        #: occasional stall as a bypass; demanding two in a row keeps a
        #: single misread from abandoning a drain with C3 still charged.
        #: Interference implies a jittery environment, so it bumps the
        #: default the same way.
        self.drain_confirmations = 2 if self.robust else 1
        self.slide_base = machine.kernel.map_anonymous(
            process, pages=slide_pages + 1, perms=Perm.RX, kind="code"
        )
        self.slide_pages = slide_pages
        super().__init__(machine, process, thread_id, timer)
        self.classifier = CentroidClassifier()
        self.calibrate()

    # ------------------------------------------------------------------
    # Placement and execution
    # ------------------------------------------------------------------
    def place_at(self, iva: int) -> Program:
        """Relocate the probe stld to an exact IVA inside the slide region.

        The pipeline interprets instruction objects, so re-writing the
        code bytes at every slide offset is skipped (a real attacker
        memcpy's the machine code once per offset, Fig 3).
        """
        if not self.slide_base <= iva <= self.slide_limit:
            raise ReproError(f"IVA {iva:#x} outside the slide region")
        return self.template.relocate(iva)

    @property
    def slide_limit(self) -> int:
        return (
            self.slide_base
            + self.slide_pages * PAGE_SIZE
            - self.template.byte_size
        )

    def observe(self, program: Program, aliasing: bool) -> TimingClass:
        return self.classifier.classify(self.run(program, aliasing))

    def stalls(self, program: Program) -> bool:
        """One non-aliasing probe: does the entry read as charged (C3 > 0)?"""
        return self.observe(program, aliasing=False) in _STALL_CLASSES

    def read_bit(self, program: Program) -> int:
        """The SSBP covert read: a stall is a 1 (then drain C3 so the
        next read starts clean), a bypass is a 0."""
        if self.stalls(program):
            self.drain_c3(program)
            return 1
        return 0

    # ------------------------------------------------------------------
    # Self-calibration (no privileged placement: any offsets will do,
    # because the state machine is the same whatever the entry)
    # ------------------------------------------------------------------
    def calibrate(self) -> CalibrationResult:
        """Self-calibrate the timing classifier.

        The quiet protocol is the paper's mean-centroid fit
        (byte-identical to the pre-interference stack).  The robust one
        (:attr:`robust`) is the median/MAD fit with a separability
        check: it gathers twice the samples per attempt and retries on
        fresh slide spots while the check fails, keeping the
        best-separated calibration if no attempt clears the bar.
        """
        if not self.robust:
            result = self._calibrate_once(
                [self.slide_base + spot * 128 for spot in range(_CALIBRATION_SPOTS)]
            )
            self.classifier.fit(result)
            return result
        width = _CALIBRATION_SPOTS * 2
        best: CalibrationResult | None = None
        best_separability = -1.0
        for attempt in range(3):
            offsets = [
                self.slide_base + (attempt * width + spot) * 128
                for spot in range(width)
            ]
            result = self._calibrate_once(offsets)
            self.classifier.fit(result, robust=True)
            separability = self.classifier.separability()
            if separability > best_separability:
                best, best_separability = result, separability
            if separability >= _MIN_SEPARABILITY:
                break
        assert best is not None
        if self.classifier.calibration is not best:
            self.classifier.fit(best, robust=True)
        return best

    def _calibrate_once(self, offsets: list[int]) -> CalibrationResult:
        def probes():
            for iva in offsets:
                program = self.place_at(iva)
                # Warm the data lines with an untimed non-aliasing run.
                self.run(program, aliasing=False)
                yield partial(self.run, program)

        psf = self.machine.core.model.psf_supported
        result = collect_calibration(probes(), psf, require_all=psf)
        self._drain_calibration_state(offsets)
        return result

    def _drain_calibration_state(self, offsets: list[int]) -> None:
        """The calibration spots end in the Block state, which only an
        eviction or PSFP flush clears; a syscall (PSFP flush) plus C3
        drains restore neutral ground — all unprivileged operations."""
        self.machine.kernel.syscall(self.process, self.thread_id)
        for iva in offsets:
            program = self.place_at(iva)
            for _ in range(36):
                self.run(program, aliasing=False)

    # ------------------------------------------------------------------
    # Common predictor manipulations (all timing-observable)
    # ------------------------------------------------------------------
    def drain_c3(self, program: Program) -> int:
        """Non-aliasing runs until the bypass class shows (for
        ``drain_confirmations`` consecutive observations); returns the
        count of sticky (stalled) observations drained."""
        drained = 0
        bypasses_in_a_row = 0
        for _ in range(_DRAIN_BUDGET):
            if self.observe(program, aliasing=False) is TimingClass.BYPASS:
                bypasses_in_a_row += 1
                if bypasses_in_a_row >= self.drain_confirmations:
                    return drained
            else:
                bypasses_in_a_row = 0
                drained += 1
        return drained

    def train_psf(self, program: Program) -> bool:
        """Drive this pair's PSFP entry into the PSF-enabled state:
        drain C3, force a G, then aliasing runs until a predictive
        forward (type C) is observed."""
        self.machine.kernel.syscall(self.process, self.thread_id)  # PSFP flush
        self.drain_c3(program)
        self.run(program, aliasing=True)  # G: C0=4, C1=16, C2=2
        for _ in range(_TRAIN_BUDGET):
            if self.observe(program, aliasing=True) is TimingClass.PSF_FORWARD:
                return True
        return False
