"""Leaking virtual-to-physical mapping information via the hash (§V-D).

The paper's second side-channel impact of SSBP: the selection hash mixes
the *physical* frame number into an attacker-observable quantity.  An
unprivileged process that finds a colliding offset pair between two of
its own executable pages learns

    H(F_i) ^ H(F_j)  =  L_i ^ L_j

where ``H(F)`` is the fold of the page's frame bits and ``L`` the load
instruction's (attacker-known) in-page offset — 12 bits of relative
physical-mapping information per page pair, normally hidden from user
space (pagemap is privileged).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.attacks.collision import SsbpCollisionFinder
from repro.attacks.runtime import AttackerStld
from repro.core.hashfn import ipa_hash
from repro.cpu.machine import Machine
from repro.mem.physical import PAGE_SHIFT, PAGE_SIZE
from repro.revng.stld import load_instruction_index

__all__ = ["RelativeHashLeak", "AddressMappingLeak"]


@dataclass(frozen=True)
class RelativeHashLeak:
    """One recovered relative frame hash ``H(F_i) ^ H(F_j)``."""

    page_i: int
    page_j: int
    recovered: int
    attempts: int


class AddressMappingLeak:
    """Recovers relative frame hashes among the attacker's own pages."""

    def __init__(self, machine: Machine | None = None, pages: int = 4) -> None:
        self.machine = machine or Machine(seed=808)
        self.process = self.machine.kernel.create_process("va-pa-leaker")
        self.pages = pages
        self.attacker = AttackerStld(
            self.machine, self.process, slide_pages=pages
        )
        template = self.attacker.template
        self._load_offset = (
            template.iva(load_instruction_index(template)) - template.base_iva
        )

    def _page_base(self, page: int) -> int:
        return self.attacker.slide_base + page * PAGE_SIZE

    def recover_pair(self, page_i: int, page_j: int) -> RelativeHashLeak:
        """Find a colliding offset pair between two of the attacker's own
        pages by charging a fixed stld in page i and sliding within page j."""
        anchor = self.attacker.place_at(self._page_base(page_i) + 64)
        finder = SsbpCollisionFinder(
            self.attacker, recharge=lambda: self.attacker.charge_c3(anchor)
        )
        found = finder.find(
            start_offset=page_j * PAGE_SIZE,
            max_attempts=PAGE_SIZE,
        )
        self.attacker.drain_c3(found.program)
        anchor_load_off = (64 + self._load_offset) & (PAGE_SIZE - 1)
        found_load_off = (found.iva + self._load_offset) & (PAGE_SIZE - 1)
        return RelativeHashLeak(
            page_i=page_i,
            page_j=page_j,
            recovered=anchor_load_off ^ found_load_off,
            attempts=found.attempts,
        )

    def recover_all(self) -> list[RelativeHashLeak]:
        """Relative hashes of every page against page 0."""
        return [self.recover_pair(0, page) for page in range(1, self.pages)]

    # ------------------------------------------------------------------
    # Ground truth (test oracle only: needs the kernel's page tables)
    # ------------------------------------------------------------------
    def true_relative_hash(self, page_i: int, page_j: int) -> int:
        def frame_hash(page: int) -> int:
            base = self._page_base(page)
            mapping = self.process.address_space.mapping(base >> PAGE_SHIFT)
            assert mapping is not None
            return ipa_hash(mapping.frame << PAGE_SHIFT)

        return frame_hash(page_i) ^ frame_hash(page_j)
