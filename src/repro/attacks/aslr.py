"""SPOILER-style ASLR derandomization through predictor collisions.

The selection hash consumes *physical* instruction addresses: the low
12 bits are the page offset (entering the fold linearly — Vulnerability
2), the rest fold down from the frame number.  Two consequences, both
measured here against a victim whose code region lives in a contiguous
physical frame run at a secret base (the layout a loaded image or a
hugepage/CMA allocation has):

* **Sub-page placement is fully recoverable.**  If a defense
  re-randomizes a secret routine's placement *within* its page
  (function-granular ASLR), one reference routine at a known offset on
  the same page calibrates away the unknown frame hash: the gadget's
  colliding probe offset then reveals the secret placement exactly —
  all 12 page-offset bits, two page scans, no privileges.
* **Physical base bits leak like SPOILER.**  Reference routines at
  known page distances ``d`` give the attacker ``H(B+d) XOR H(B)`` for
  the secret base frame ``B``.  Those differences depend only on the
  carry pattern of ``B + d``, so each distance reveals a few low bits
  of ``B`` — partial physical-address disclosure, exactly SPOILER's
  shape.  The attack tracks the candidate set explicitly and probes
  *predicted* offsets only, so every distance after the first costs a
  handful of probes, not a page scan.

The attacker is a separate unprivileged process: it invokes victim
routines with chosen (aliasing or not) arguments and slides stld probes
through its own pages.  SSBP surviving context switches (Vulnerability
1) is what lets the victim's charge be observed cross-process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.attacks.runtime import AttackerStld
from repro.core.hashfn import ipa_hash
from repro.cpu.isa import Program
from repro.cpu.machine import Machine
from repro.errors import ConfigError
from repro.mem.physical import PAGE_SHIFT, PAGE_SIZE
from repro.osm.address_space import Perm
from repro.revng.stld import StldRunner, build_stld, load_instruction_index
from repro.telemetry.metrics import registry

__all__ = ["AslrReport", "AslrDerandomizer"]

#: Known in-page offset of the reference routines (part of the victim
#: binary's layout, which the attacker has).
_REF_OFFSET = 64
#: Lowest sub-page placement the randomizer uses: keeps the secret
#: routine clear of the page-0 reference routine.
_SUB_FLOOR = 256


def _frame_hash(frame: int) -> int:
    """Hash contribution of a page frame (page offset zero)."""
    return ipa_hash(frame << PAGE_SHIFT)


@dataclass
class AslrReport:
    """What the probe recovered, scored against ground truth."""

    true_sub_offset: int
    recovered_sub_offset: int | None
    window_bits: int
    candidates_remaining: int
    true_base_in_candidates: bool
    sites_probed: int
    probes: int
    victim_invocations: int
    cycles: int
    clock_ghz: float
    scan_page: int = 0
    distance_hits: list[int] = field(default_factory=list)

    @property
    def sub_page_recovered(self) -> bool:
        return self.recovered_sub_offset == self.true_sub_offset

    @property
    def physical_bits_recovered(self) -> float:
        """Entropy removed from the physical-base window, in bits."""
        if not self.candidates_remaining or not self.true_base_in_candidates:
            return 0.0
        return self.window_bits - math.log2(self.candidates_remaining)

    @property
    def success(self) -> bool:
        return self.sub_page_recovered and self.true_base_in_candidates

    def to_dict(self) -> dict:
        return {
            "true_sub_offset": self.true_sub_offset,
            "recovered_sub_offset": self.recovered_sub_offset,
            "sub_page_recovered": self.sub_page_recovered,
            "window_bits": self.window_bits,
            "candidates_remaining": self.candidates_remaining,
            "true_base_in_candidates": self.true_base_in_candidates,
            "physical_bits_recovered": round(self.physical_bits_recovered, 2),
            "sites_probed": self.sites_probed,
            "probes": self.probes,
            "victim_invocations": self.victim_invocations,
            "cycles": self.cycles,
            "scan_page": self.scan_page,
            "success": self.success,
        }


class AslrDerandomizer:
    """Recovers a randomized victim placement from aliasing collisions.

    The victim's code region is ``region_pages`` pages in a contiguous
    frame run at ``window_base + secret`` (``secret`` uniform over
    ``2**window_bits`` — the randomized allocation under attack); a
    secret routine is additionally placed at a random sub-page offset of
    page 0.  The attacker knows the binary layout (reference offsets,
    distances) and the allocator's window, and nothing about either
    secret.
    """

    def __init__(
        self,
        machine: Machine | None = None,
        window_bits: int = 12,
        window_base: int = 0x80_0000,
        region_pages: int = 40,
        site_distances: tuple[int, ...] = (1, 2, 4, 8, 16, 32),
        slide_pages: int = 3,
    ) -> None:
        if site_distances and max(site_distances) >= region_pages:
            raise ConfigError("site distance beyond the victim region")
        self.machine = machine or Machine(seed=4242)
        self.window_bits = window_bits
        self.window_base = window_base
        self.site_distances = tuple(site_distances)
        kernel = self.machine.kernel
        self.victim_process = kernel.create_process("aslr-victim")
        self.attacker_process = kernel.create_process("aslr-attacker")

        # --- the randomized allocation (ground truth kept for scoring) ---
        rng = kernel.rng
        self.template = build_stld()
        load_index = load_instruction_index(self.template)
        self._load_off = sum(
            instr.size for instr in self.template.instructions[:load_index]
        )
        for _ in range(64):
            secret = rng.randrange(1 << window_bits)
            try:
                self.region_va, self.base_frame = kernel.map_contiguous(
                    self.victim_process,
                    region_pages,
                    perms=Perm.RX,
                    kind="code",
                    base_frame=window_base + secret,
                )
                break
            except ConfigError:
                continue  # run not free at this base: redraw
        else:
            raise ConfigError("could not place the victim window")
        self.true_secret = self.base_frame - window_base
        self.true_sub_offset = rng.randrange(
            _SUB_FLOOR, PAGE_SIZE - self.template.byte_size
        )

        def _site(iva: int) -> Program:
            return self.machine.place_program(
                self.victim_process, self.template.relocate(iva), iva
            )

        self._ref = _site(self.region_va + _REF_OFFSET)
        self._gadget = _site(self.region_va + self.true_sub_offset)
        self._distance_sites = {
            d: _site(self.region_va + d * PAGE_SIZE + _REF_OFFSET)
            for d in self.site_distances
        }
        #: The victim service: runs a routine with chosen (aliasing or
        #: not) arguments; its run count is the victim invocations.
        self.victim = StldRunner(self.machine, self.victim_process)

        # --- the attacker's own probing kit ---
        self.attacker = AttackerStld(
            self.machine, self.attacker_process, slide_pages=slide_pages
        )
        self.probes = 0

    # ------------------------------------------------------------------
    # Probing primitives (attacker-local, one scan page at a time)
    # ------------------------------------------------------------------
    def _probe_at(self, placement: int) -> Program:
        return self.attacker.place_at(self.attacker.slide_base + placement)

    def _sticky_for(self, placement: int, site: Program) -> bool:
        """Stall at ``placement``, attributable to ``site``'s entry.

        A first stall may be residue from an earlier site; drain it,
        recharge *this* site, and demand the stall returns.
        """
        self.probes += 1
        probe = self._probe_at(placement)
        if not self.attacker.stalls(probe):
            return False
        self.attacker.drain_c3(probe)
        self.victim.charge_c3(site)
        return self.attacker.stalls(probe)

    def _page_span(self, page: int) -> range:
        base = page * PAGE_SIZE
        return range(base, base + PAGE_SIZE - self.template.byte_size + 1)

    def _full_scan(self, site: Program, page: int) -> int | None:
        """Slide across one attacker page; the colliding placement or None."""
        self.victim.charge_c3(site)
        for placement in self._page_span(page):
            if self._sticky_for(placement, site):
                self.attacker.drain_c3(self._probe_at(placement))
                return placement - page * PAGE_SIZE
        return None

    # ------------------------------------------------------------------
    def recover(self) -> AslrReport:
        """Run the whole derandomization; never raises on a failed probe."""
        thread = self.machine.core.thread(0)
        start = thread.cycles
        outcome = None
        for page in range(self.attacker.slide_pages):
            outcome = self._recover_in_page(page)
            if outcome is not None:
                break
        recovered_sub, candidates, hits, page = outcome or (None, [], [], 0)
        cycles = thread.cycles - start
        report = AslrReport(
            true_sub_offset=self.true_sub_offset,
            recovered_sub_offset=recovered_sub,
            window_bits=self.window_bits,
            candidates_remaining=len(candidates),
            true_base_in_candidates=self.true_secret in candidates,
            sites_probed=2 + len(self.site_distances),
            probes=self.probes,
            victim_invocations=self.victim.runs,
            cycles=cycles,
            clock_ghz=self.machine.core.model.clock_ghz,
            scan_page=page,
            distance_hits=hits,
        )
        metrics = registry()
        metrics.counter("attack.aslr.probes").inc(self.probes)
        metrics.counter("attack.aslr.recoveries").inc(int(report.success))
        metrics.histogram("attack.aslr.candidates_remaining").observe(
            len(candidates)
        )
        return report

    def _recover_in_page(
        self, page: int
    ) -> tuple[int, list[int], list[int], int] | None:
        """One attempt with all probes in attacker page ``page``.

        Returns None when the reference or gadget collision falls in the
        sliver of offsets this page cannot place a probe at (the routine
        must not straddle into the next page) — the caller retries in
        the next page, whose frame hash shifts every collision offset.
        """
        load_off = self._load_off
        ref_placement = self._full_scan(self._ref, page)
        if ref_placement is None:
            return None
        # Collision equates XORed load offsets with XORed frame hashes:
        # mask = H(F_attacker) ^ H(B), the page-local calibration value.
        mask = (
            (ref_placement + load_off)
            ^ ((_REF_OFFSET + load_off) & 0xFFF)
        ) & 0xFFF
        gadget_placement = self._full_scan(self._gadget, page)
        if gadget_placement is None:
            return None
        # The gadget's load sits at (sub + load_off) by *addition*; undo
        # the XOR mask first, then the addition.
        recovered_sub = (((gadget_placement + load_off) & 0xFFF) ^ mask) - load_off
        candidates = list(range(1 << self.window_bits))
        ref_load = (_REF_OFFSET + load_off) & 0xFFF
        span = self._page_span(page)
        hits: list[int] = []
        for distance, site in self._distance_sites.items():
            predictions: dict[int, list[int]] = {}
            for candidate in candidates:
                base = self.window_base + candidate
                predicted = (
                    mask
                    ^ _frame_hash(base)
                    ^ _frame_hash(base + distance)
                    ^ ref_load
                )
                predictions.setdefault(predicted, []).append(candidate)
            self.victim.charge_c3(site)
            hit = None
            untestable: list[int] = []
            for predicted in sorted(predictions):
                placement = page * PAGE_SIZE + predicted - load_off
                if placement not in span:
                    untestable.extend(predictions[predicted])
                    continue
                if hit is None and self._sticky_for(placement, site):
                    hit = predicted
                    self.attacker.drain_c3(self._probe_at(placement))
            survivors = list(predictions[hit]) if hit is not None else []
            survivors.extend(untestable)
            if not survivors:
                # Nothing testable matched: inconsistent observations.
                return recovered_sub, [], hits, page
            candidates = sorted(survivors)
            hits.append(hit if hit is not None else -1)
        return recovered_sub, candidates, hits, page
