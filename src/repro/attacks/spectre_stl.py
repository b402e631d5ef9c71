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

:meth:`SpectreSTL.read_byte` is the one byte read (vote, retries,
backoff); :meth:`SpectreSTL.leak` loops over it and recalibrates when
confidence collapses.  :mod:`repro.attacks.extraction` is the campaign
around that loop.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field

from repro.attacks.collision import CollisionResult, SsbpCollisionFinder
from repro.attacks.flush_reload import FlushReloadChannel
from repro.attacks.leak_report import TimedSecretLeak
from repro.attacks.victim_gadgets import STL_ATTACK_IDX, StlVictim
from repro.attacks.runtime import AttackerStld
from repro.cpu.isa import Program
from repro.cpu.machine import Machine
from repro.errors import AttackError, CollisionNotFound
from repro.osm.process import Process
from repro.telemetry.metrics import registry

__all__ = ["SpectreSTL", "LeakReport"]

#: array1 offset whose byte the attacker controls, used to validate a
#: collision candidate by leaking a known value.
_VALIDATE_OFF = 0x180
_VALIDATE_BYTE = 0xA7


@dataclass
class LeakReport(TimedSecretLeak):
    """Outcome of a leak campaign."""

    collision: CollisionResult | None = None
    validation_attempts: int = 0
    per_byte_errors: list[int] = field(default_factory=list)
    #: Calibrated per-byte confidence, aligned with ``recovered``.
    byte_confidence: list[float] = field(default_factory=list)
    #: Leak rounds retried so far (robust reads only).
    retries: int = 0
    #: Mid-campaign recalibrations triggered by confidence collapse.
    recalibrations: int = 0


class SpectreSTL:
    """Out-of-place Spectre-STL against a same-process victim gadget.

    ``redundancy`` is the number of leak rounds voted per byte (the
    redundancy knob of :mod:`repro.attacks.coding` applied to the leak).
    """

    #: Extra leak rounds a robust read may spend per byte beyond
    #: ``redundancy`` (bounded retry).
    MAX_RETRIES = 4
    #: Cap on the exponential backoff between retries (syscalls idled).
    BACKOFF_CAP = 4
    #: Consecutive low-confidence bytes that trigger a recalibration.
    RECALIBRATE_AFTER = 2
    #: Bytes at or above this confidence count as confidently recovered.
    CONFIDENCE_FLOOR = 0.5

    def __init__(
        self,
        machine: Machine | None = None,
        slide_pages: int = 16,
        gadget: Program | None = None,
        hardened: bool = True,
        redundancy: int = 1,
    ) -> None:
        if redundancy < 1:
            raise ValueError(f"redundancy must be >= 1, got {redundancy}")
        self.redundancy = redundancy
        self.machine = machine or Machine(seed=1337)
        kernel = self.machine.kernel
        self.process: Process = kernel.create_process("victim-with-attacker")
        # ``gadget`` lets callers transform the victim routine — the
        # mitigation evaluation passes a fenced variant (Section VI-A).
        self.victim = StlVictim(self.machine, self.process, gadget)
        self.victim.set_idx(STL_ATTACK_IDX)
        kernel.write(
            self.process, self.victim.array1 + _VALIDATE_OFF, bytes([_VALIDATE_BYTE])
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
            self.machine, self.process, self.victim.array2, robust=self.attacker.robust
        )
        self.collision: CollisionResult | None = None
        self.validation_attempts = 0
        #: What the reads have done so far: the confidence of each byte
        #: the latest :meth:`leak` read (kept when it fails part-way),
        #: retried rounds and recalibrations.
        self.byte_confidence: list[float] = []
        self.retries = 0
        self.recalibrations = 0

    def _charge_victim_load(self) -> None:
        """Charge the gadget load's SSBP stickiness so the collision scan
        has something to observe: aliasing victim runs (idx = 0) deliver
        G events; a syscall between them clears C0 so each run bypasses."""
        self.victim.set_idx(0)
        for _ in range(4):
            self.machine.kernel.syscall(self.process)
            self.victim.call(0)
        self.victim.set_idx(STL_ATTACK_IDX)

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
        recovered, _ = self.leak_byte_scored(_VALIDATE_OFF, candidate)
        return recovered == _VALIDATE_BYTE

    # ------------------------------------------------------------------
    # Phase 2+3: per-byte mistrain and leak
    # ------------------------------------------------------------------
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
        self.victim.call(array1_offset)
        slot, t = self.victim.receive(self.channel)
        if slot is None:
            return None, 0.0
        if t is None:
            # Only the decoy fired: the leaked byte was the decoy value.
            return slot, self._DECOY_CONFIDENCE
        scale = max(1.0, self.channel.threshold - self.channel.hit_center)
        return slot, max(0.0, min(1.0, (self.channel.threshold - t) / scale))

    def read_byte(self, array1_offset: int) -> tuple[int, float]:
        """The byte at ``array1 + array1_offset`` plus its confidence,
        leaked through the validated collision.

        The attacker's one switch, ``attacker.robust``, picks the
        protocol.  Quiet: ``redundancy`` rounds (a failed round is
        retried once when ``redundancy`` is 1) and a plurality vote.
        Confidence is the winner's share of the successful rounds.

        Robust: a confidence-weighted vote.  Rounds continue until the
        winner is corroborated (``max(redundancy, 2)`` agreeing rounds,
        or a mean confidence at the floor) or ``redundancy +
        MAX_RETRIES`` rounds are spent.  Each failed round backs off
        for a capped, doubling number of syscalls: they burn cycles and
        flush PSFP, clearing the poisoned predictor state that made the
        round fail.  Confidence is the winner's weight over all rounds,
        so failed and dissenting rounds dilute it.

        Ties go to the smallest byte value and a byte no round read is
        0: the decode bias is part of the attack, not hidden randomness.
        """
        robust = self.attacker.robust
        budget = self.redundancy + (
            self.MAX_RETRIES if robust else int(self.redundancy == 1)
        )

        def plurality(tally: dict[int, float]) -> int:
            return min(tally, key=lambda b: (-tally[b], b))

        votes: Counter[int] = Counter()
        weights: dict[int, float] = defaultdict(float)
        for attempts in range(1, budget + 1):
            byte, confidence = self.leak_byte_scored(array1_offset, self.collision)
            if byte is not None:
                votes[byte] += 1
                weights[byte] += confidence
                if votes.total() < self.redundancy:
                    continue
                if not robust:
                    break
                winner = plurality(weights)
                if (
                    votes[winner] >= max(self.redundancy, 2)
                    or weights[winner] / votes[winner] >= self.CONFIDENCE_FLOOR
                ):
                    break
            if robust and attempts < budget:
                self.retries += 1
                registry().counter("attack.retry").inc()
                if byte is None:
                    failures = attempts - votes.total()
                    for _ in range(min(2 ** (failures - 1), self.BACKOFF_CAP)):
                        self.machine.kernel.syscall(self.process)
        if not votes:
            return 0, 0.0
        if not robust:
            winner = plurality(votes)
            return winner, votes[winner] / votes.total()
        winner = plurality(weights)
        return winner, min(1.0, weights[winner] / attempts)

    def recalibrate(self) -> None:
        """Refresh both timing calibrations against the drifted clock —
        :meth:`leak` invokes this when per-byte confidence collapses
        mid-campaign."""
        self.attacker.calibrate()
        self.channel.recalibrate()

    def leak(self, secret: bytes) -> LeakReport:
        """Plant ``secret`` in victim memory and leak it byte by byte.

        A robust attacker recalibrates after ``RECALIBRATE_AFTER``
        low-confidence bytes in a row: such a streak means the
        calibrated timing no longer matches the drifted clock.
        """
        self.victim.plant(secret)
        if self.collision is None:
            self.find_collision()
        start_cycles = self.machine.core.thread(0).cycles
        recovered = bytearray()
        self.byte_confidence = []
        errors = []
        streak = 0
        for index in range(len(secret)):
            byte, confidence = self.read_byte(self.victim.secret_x(index))
            recovered.append(byte)
            self.byte_confidence.append(confidence)
            if byte != secret[index]:
                errors.append(index)
            if not self.attacker.robust:
                continue
            streak = 0 if confidence >= self.CONFIDENCE_FLOOR else streak + 1
            if streak >= self.RECALIBRATE_AFTER:
                self.recalibrate()
                self.recalibrations += 1
                registry().counter("attack.recalibrations").inc()
                streak = 0
        cycles = self.machine.core.thread(0).cycles - start_cycles
        return LeakReport(
            recovered=bytes(recovered),
            expected=secret,
            cycles=cycles,
            clock_ghz=self.machine.core.model.clock_ghz,
            collision=self.collision,
            validation_attempts=self.validation_attempts,
            per_byte_errors=errors,
            byte_confidence=self.byte_confidence,
            retries=self.retries,
            recalibrations=self.recalibrations,
        )
