"""The out-of-place Spectre-STL attack (paper Section V-B).

The attack leaks a victim function's reachable memory one byte at a time,
inside one process (PSFP is flushed on context switches, so Spectre-STL
cannot cross processes — a paper finding this module embodies):

1. **Collision search** — the attacker slides its own stld until its load
   IPA hashes to the victim gadget load's predictor entry (detected via
   the SSBP stickiness the victim's aliasing runs leave behind), keeping
   the same store→load IPA distance as the gadget so the *store* tags can
   also coincide (Fig 7).  Candidates are validated by leaking a byte the
   attacker already knows; the paper reports >90% success within 16 pages.
2. **Mistraining** — the attacker drives the shared PSFP entry into the
   PSF-enabled state with its own stld (one G event, then aliasing runs
   until a predictive forward is observed).
3. **Leak** — the attacker flushes the victim's ``idx`` cache line (the
   store's address input), runs the victim once with ``x`` pointing at
   the secret, and recovers the byte with Flush+Reload: in the transient
   window ``x`` was forwarded to the gadget's first load, the second load
   fetched ``array1[x]``, and the third encoded it into a cache line.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.attacks.collision import CollisionResult, SsbpCollisionFinder
from repro.attacks.flush_reload import FlushReloadChannel
from repro.attacks.leak_report import TimedSecretLeak
from repro.attacks.victim_gadgets import spectre_stl_gadget
from repro.attacks.runtime import AttackerStld
from repro.cpu.isa import Clflush, Halt, MovImm, Program
from repro.cpu.machine import Machine
from repro.errors import AttackError, CollisionNotFound
from repro.osm.process import Process

__all__ = ["SpectreSTL", "LeakReport"]

#: Store index used in attack runs: disjoint from the first 256 probe
#: slots of array2 so the store never aliases the encoded line.
_ATTACK_IDX = 300
#: array1 offset whose byte the attacker controls, used to validate a
#: collision candidate by leaking a known value.
_VALIDATE_OFF = 0x180
_VALIDATE_BYTE = 0xA7
#: Architectural content of array2[0]: the squash replay re-encodes
#: array1[array2[0]]; pointing it at a zero byte pins the replay's cache
#: touch to slot 0, which reception accounts for.
_DECOY_SLOT = 0


@dataclass
class LeakReport(TimedSecretLeak):
    """Outcome of a leak campaign."""

    collision: CollisionResult | None = None
    validation_attempts: int = 0
    per_byte_errors: list[int] = field(default_factory=list)


class SpectreSTL:
    """Out-of-place Spectre-STL against a same-process victim gadget."""

    def __init__(
        self,
        machine: Machine | None = None,
        slide_pages: int = 16,
        gadget: Program | None = None,
        hardened: bool = True,
    ) -> None:
        self.machine = machine or Machine(seed=1337)
        kernel = self.machine.kernel
        self.process: Process = kernel.create_process("victim-with-attacker")
        # Victim state: array1 (byte pool the gadget indexes), array2
        # (doubles as the Flush+Reload probe array), the secret, and the
        # memory slot holding idx (flushed to delay the store).
        self.array1 = kernel.map_anonymous(self.process, pages=2)
        self.array2 = kernel.map_anonymous(self.process, pages=512)
        self.idx_slot = kernel.map_anonymous(self.process, pages=1)
        self.secret_va = kernel.map_anonymous(self.process, pages=4)
        kernel.write(self.process, self.idx_slot, _ATTACK_IDX.to_bytes(8, "little"))
        kernel.write(self.process, self.array1 + _VALIDATE_OFF, bytes([_VALIDATE_BYTE]))
        # array2[0] architectural value: points the squash replay at a
        # known-zero array1 byte (slot 0 decoy).
        kernel.write(self.process, self.array2, (0).to_bytes(8, "little"))
        # ``gadget`` lets callers transform the victim routine — the
        # mitigation evaluation passes a fenced variant (Section VI-A).
        self.victim = self.machine.load_program(
            self.process, gadget if gadget is not None else spectre_stl_gadget()
        )
        # ``hardened=True`` (default) lets the attacker select its robust
        # protocols when a non-quiet interference model is attached;
        # ``hardened=False`` pins the historical protocols — the
        # pre-hardening comparison arm of the robustness curve.  Every
        # layer reads the one resulting switch, ``attacker.robust``.
        self.attacker = AttackerStld(
            self.machine,
            self.process,
            slide_pages=slide_pages,
            robust=None if hardened else False,
        )
        self.channel = FlushReloadChannel(
            self.machine, self.process, self.array2, robust=self.attacker.robust
        )
        self._flush_idx_program = self.machine.load_program(
            self.process,
            Program(
                [MovImm("p", self.idx_slot), Clflush(base="p"), Halt()],
                name="flush-idx",
            ),
        )
        self.collision: CollisionResult | None = None
        self.validation_attempts = 0

    # ------------------------------------------------------------------
    # Victim invocation (the only interface the attacker has)
    # ------------------------------------------------------------------
    def run_victim(self, x: int, flush_idx: bool = True) -> None:
        if flush_idx:
            self.machine.run(self.process, self._flush_idx_program)
        self.machine.run(
            self.process,
            self.victim,
            {
                "x": x & ((1 << 64) - 1),
                "idx_ptr": self.idx_slot,
                "array1": self.array1,
                "array2": self.array2,
            },
        )

    def _charge_victim_load(self) -> None:
        """Charge the gadget load's SSBP stickiness so the collision scan
        has something to observe: aliasing victim runs (idx = 0) deliver
        G events; a syscall between them clears C0 so each run bypasses."""
        kernel = self.machine.kernel
        original = kernel.read(self.process, self.idx_slot, 8)
        kernel.write(self.process, self.idx_slot, (0).to_bytes(8, "little"))
        for _ in range(4):
            kernel.syscall(self.process)
            self.run_victim(x=0, flush_idx=True)
        kernel.write(self.process, self.idx_slot, original)

    # ------------------------------------------------------------------
    # Phase 1: collision search + validation
    # ------------------------------------------------------------------
    def find_collision(
        self, max_candidates: int = 16, max_attempts: int | None = None
    ) -> CollisionResult:
        """Find and validate an attacker stld colliding with the victim
        pair.  Load-hash candidates come from code sliding; each is
        validated by leaking a byte the attacker knows (store-tag match
        is not directly observable, Fig 7).  ``max_attempts`` caps each
        sliding scan — the give-up budget a real attacker sets against a
        victim whose entry never charges (e.g. a fenced gadget)."""
        finder = SsbpCollisionFinder(self.attacker, self._charge_victim_load)
        # The robust arm may rescan a failed range: a garbled screen read
        # skips the page's one true offset, but it is still inside the
        # same scan window, so a second pass over it usually lands.
        rescans_left = 2 if self.attacker.robust else 0
        offset = 0
        for candidate_index in range(max_candidates):
            while True:
                try:
                    candidate = finder.find(
                        start_offset=offset, max_attempts=max_attempts
                    )
                    break
                except CollisionNotFound:
                    if rescans_left <= 0:
                        candidate = None
                        break
                    rescans_left -= 1
            if candidate is None:
                break
            offset = candidate.iva - self.attacker.slide_base + 1
            self.validation_attempts = candidate_index + 1
            if self._validate(candidate):
                self.collision = candidate
                return candidate
        raise AttackError(
            f"no PSFP collision validated in {self.validation_attempts} candidates"
        )

    def _validate(self, candidate: CollisionResult) -> bool:
        recovered = self.leak_byte(_VALIDATE_OFF, candidate)
        return recovered == _VALIDATE_BYTE

    # ------------------------------------------------------------------
    # Phase 2+3: per-byte mistrain and leak
    # ------------------------------------------------------------------
    def leak_byte(self, array1_offset: int, candidate: CollisionResult) -> int | None:
        return self.leak_byte_scored(array1_offset, candidate)[0]

    #: Confidence assigned to a decoy-only round: the byte is inferred
    #: from the *absence* of other hits, weaker evidence than a direct
    #: cache hit but far from a guess.
    _DECOY_CONFIDENCE = 0.4

    def leak_byte_scored(
        self, array1_offset: int, candidate: CollisionResult
    ) -> tuple[int | None, float]:
        """One leak round plus a calibrated per-read confidence in [0, 1].

        A clean single hit scores by how deep below the hit/miss
        threshold its reload time sits (1.0 at the calibrated hit
        center, 0.0 at the threshold); decoy-only rounds score a fixed
        intermediate confidence; failed training or ambiguous multi-hit
        rounds score 0.
        """
        if not self.attacker.train_psf(candidate.program):
            return None, 0.0
        self.channel.flush_all()
        self.run_victim(x=array1_offset)
        times = self.channel.reload_times()
        hits = [
            (slot, t)
            for slot, t in enumerate(times)
            if t < self.channel.threshold and slot != _DECOY_SLOT
        ]
        if len(hits) == 1:
            slot, t = hits[0]
            scale = max(1.0, self.channel.threshold - self.channel.hit_center)
            return slot, max(0.0, min(1.0, (self.channel.threshold - t) / scale))
        if not hits:
            # Only the decoy fired: the leaked byte was the decoy value.
            return _DECOY_SLOT, self._DECOY_CONFIDENCE
        return None, 0.0

    def recalibrate(self) -> None:
        """Refresh both timing calibrations against the drifted clock —
        the hardened extraction loop invokes this when per-byte
        confidence collapses mid-campaign."""
        self.attacker.calibrate()
        self.channel.recalibrate()

    def leak(self, secret: bytes) -> LeakReport:
        """Plant ``secret`` in victim memory and leak it byte by byte."""
        kernel = self.machine.kernel
        kernel.write(self.process, self.secret_va, secret)
        candidate = self.collision or self.find_collision()
        start_cycles = self.machine.core.thread(0).cycles
        recovered = bytearray()
        errors = []
        for index in range(len(secret)):
            offset = self.secret_va + index - self.array1
            byte = self.leak_byte(offset, candidate)
            if byte is None:  # retry once on a failed round
                byte = self.leak_byte(offset, candidate)
            recovered.append(byte if byte is not None else 0)
            if recovered[-1] != secret[index]:
                errors.append(index)
        cycles = self.machine.core.thread(0).cycles - start_cycles
        return LeakReport(
            recovered=bytes(recovered),
            expected=secret,
            cycles=cycles,
            clock_ghz=self.machine.core.model.clock_ghz,
            collision=candidate,
            validation_attempts=self.validation_attempts,
            per_byte_errors=errors,
        )
