"""Unprivileged attacker runtime.

Everything here uses only what the paper's threat model grants a normal
user: mapping its own memory, placing its own code at chosen *virtual*
addresses, executing ``clflush``/``mfence``/``rdpru``, and timing its own
execution.  No physical addresses, no PTEditor, no pagemap.

:class:`AttackerStld` wraps an stld probe routine plus a self-calibrated
timing classifier, which is all the attacks need to observe predictor
state from user space.
"""

from __future__ import annotations

from repro.core.counters import CounterState
from repro.core.exec_types import TIMING_CLASS, TimingClass
from repro.core.state_machine import run_sequence as model_run
from repro.cpu.isa import Program
from repro.cpu.machine import Machine
from repro.errors import ReproError
from repro.mem.physical import PAGE_SIZE
from repro.osm.address_space import Perm
from repro.osm.process import Process
from repro.revng.sequences import parse
from repro.revng.stld import DATA_REG, LOAD_ADDR_REG, STORE_ADDR_REG, build_stld
from repro.revng.timing import CALIBRATION_SEQUENCE, CalibrationResult, CentroidClassifier

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


class AttackerStld:
    """An attacker's stld probe kit inside one process.

    ``slide_pages`` executable pages are mapped for code sliding; probe
    programs can be placed at any byte offset inside them.
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
        self.machine = machine
        self.process = process
        self.thread_id = thread_id
        #: Whether the hardened measurement protocol is in effect, fixed
        #: here for the attacker's lifetime: ``robust=None`` follows the
        #: machine (robust exactly when a non-quiet interference model is
        #: attached); ``robust=False`` pins the historical protocol (the
        #: pre-hardening comparison arm).
        self.robust = machine.noisy if robust is None else robust
        #: Optional measurement transform (e.g. a coarse browser timer);
        #: receives true cycles, returns the attacker-visible reading.
        self.timer = timer
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
        buf = machine.kernel.map_anonymous(process, pages=2)
        self.load_va = buf + 0x100
        self.disjoint_store_va = self.load_va + 64
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

    def run(self, program: Program, aliasing: bool) -> int:
        """Execute one probe stld; returns measured cycles (RDPRU-style)."""
        store_va = self.load_va if aliasing else self.disjoint_store_va
        result = self.machine.run(
            self.process,
            program,
            {
                STORE_ADDR_REG: store_va,
                LOAD_ADDR_REG: self.load_va,
                DATA_REG: 0xDD,
            },
            thread_id=self.thread_id,
        )
        return self._measure(result.cycles)

    def _measure(self, cycles: int) -> int:
        cycles = self.machine.core.jitter(cycles)
        interference = self.machine.interference
        if interference is not None:
            # Clock drift/jitter is a property of the environment; any
            # attacker-side timer (secure-timer quantization, browser
            # coarsening) reads the already-drifted clock, so the
            # interference transform composes *first*.
            cycles = interference.timer(cycles)
        if self.timer is not None:
            cycles = self.timer(cycles)
        return cycles

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
    def calibrate(self, spots: int = 3) -> CalibrationResult:
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
                [self.slide_base + spot * 128 for spot in range(spots)]
            )
            self.classifier.fit(result)
            return result
        width = spots * 2
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
        result = CalibrationResult()
        tokens = parse(CALIBRATION_SEQUENCE)
        psf = self.machine.core.model.psf_supported
        expected, _ = model_run(
            CounterState(), [token.aliasing for token in tokens], psf
        )
        for iva in offsets:
            # Warm the data lines with an untimed non-aliasing run.
            program = self.place_at(iva)
            self.run(program, aliasing=False)
            for exec_type, token in zip(expected, tokens):
                cycles = self.run(program, token.aliasing)
                result.add(TIMING_CLASS[exec_type], cycles)
        if psf and set(result.means) != set(TimingClass):
            raise ReproError("attacker calibration missed timing classes")
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
    def drain_c3(self, program: Program, budget: int = 40) -> int:
        """Non-aliasing runs until the bypass class shows (for
        ``drain_confirmations`` consecutive observations); returns the
        count of sticky (stalled) observations drained."""
        drained = 0
        bypasses_in_a_row = 0
        for _ in range(budget):
            if self.observe(program, aliasing=False) is TimingClass.BYPASS:
                bypasses_in_a_row += 1
                if bypasses_in_a_row >= self.drain_confirmations:
                    return drained
            else:
                bypasses_in_a_row = 0
                drained += 1
        return drained

    def charge_c3(self, program: Program) -> None:
        """(7n, a) x 3: saturate C4 and charge C3 at this program's entry."""
        for _ in range(3):
            for _ in range(7):
                self.run(program, aliasing=False)
            self.run(program, aliasing=True)

    def pump_c4(self, program: Program) -> None:
        """Deliver G events until a charge is visible (C4 saturated)."""
        for _ in range(4):
            self.drain_c3(program)
            self.run(program, aliasing=True)  # G
        self.drain_c3(program)

    def train_psf(self, program: Program, budget: int = 24) -> bool:
        """Drive this pair's PSFP entry into the PSF-enabled state:
        drain C3, force a G, then aliasing runs until a predictive
        forward (type C) is observed."""
        self.machine.kernel.syscall(self.process, self.thread_id)  # PSFP flush
        self.drain_c3(program)
        self.run(program, aliasing=True)  # G: C0=4, C1=16, C2=2
        for _ in range(budget):
            if self.observe(program, aliasing=True) is TimingClass.PSF_FORWARD:
                return True
        return False
