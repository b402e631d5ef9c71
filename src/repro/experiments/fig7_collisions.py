"""E8 — Fig 7 / Vulnerability 2: how hard is it to find collisions?

Left half: the distribution of code-sliding attempts until an SSBP
collision.  Every page contains exactly one colliding offset, so the
attempt count is uniform over the page — the paper fits a Gaussian with
mean ~2200 over its (binned) histogram; we report mean and the 4096
upper bound.

Right half: PSFP collisions require the attacker's store-load IPA
distance to equal the victim's.  With the equal distance, a usable
candidate appears within a handful of pages (the paper reports >90%
within 16 pages); with a different distance the store tags can never
line up.
"""

from __future__ import annotations

from repro.attacks.collision import SsbpCollisionFinder
from repro.attacks.runtime import AttackerStld
from repro.analysis.stats import fit_gaussian
from repro.core.hashfn import collision_offset, ipa_hash
from repro.cpu.machine import Machine
from repro.experiments.base import ExperimentResult
from repro.mem.physical import PAGE_SHIFT, PAGE_SIZE
from repro.osm.address_space import Perm
from repro.revng.stld import build_stld, load_instruction_index, store_instruction_index

__all__ = ["run", "ssbp_attempt_samples", "psfp_candidate_rate"]


def ssbp_attempt_samples(trials: int = 12, seed: int = 900) -> list[int]:
    """Attempt counts over independent machines (fresh physical layouts)."""
    samples = []
    for trial in range(trials):
        machine = Machine(seed=seed + trial)
        process = machine.kernel.create_process("attacker")
        attacker = AttackerStld(machine, process, slide_pages=2)
        target_region = machine.kernel.map_anonymous(
            process, pages=2, perms=Perm.RX, kind="code"
        )
        target = attacker.template.relocate(target_region + 64)
        finder = SsbpCollisionFinder(
            attacker, lambda: attacker.charge_c3(target)
        )
        samples.append(finder.find().attempts)
    return samples


#: Distance shifts (in bytes) probed for the "different distance" case.
UNEQUAL_SHIFTS = (1, 2, 4, 60)


#: Independent machines, slide pages per machine and first machine seed
#: of the PSFP candidate check.
_PSFP_TRIALS = 8
_PSFP_PAGES = 16
_PSFP_SEED = 300


def _psfp_hits(seed: int) -> list[bool]:
    """On one fresh machine: does some load-colliding placement within
    :data:`_PSFP_PAGES` slide pages also match the victim's store tag, at
    the equal distance and then at each of :data:`UNEQUAL_SHIFTS`?

    The page offset enters the load hash linearly, so each slide page
    holds exactly one load-colliding placement (:func:`collision_offset`);
    only those have their store tag checked.
    """
    template = build_stld()
    load_off = template.iva(load_instruction_index(template)) - template.base_iva
    store_off = template.iva(store_instruction_index(template)) - template.base_iva
    machine = Machine(seed=seed)
    process = machine.kernel.create_process("x")
    space = process.address_space
    victim = machine.kernel.map_anonymous(
        process, pages=2, perms=Perm.RX, kind="code"
    ) + 128
    victim_load_hash = ipa_hash(space.translate_nofault(victim + load_off))
    victim_store_hash = ipa_hash(space.translate_nofault(victim + store_off))

    slide = machine.kernel.map_anonymous(
        process, pages=_PSFP_PAGES, perms=Perm.RX, kind="code"
    )
    limit = slide + _PSFP_PAGES * PAGE_SIZE - template.byte_size
    placements = []
    for page in range(_PSFP_PAGES):
        page_va = slide + page * PAGE_SIZE
        frame = space.translate_nofault(page_va) >> PAGE_SHIFT
        iva = page_va + collision_offset(victim_load_hash, frame) - load_off
        if slide <= iva < limit:
            placements.append(iva)

    def store_tag_matches(distance_shift: int) -> bool:
        for iva in placements:
            store_ipa = space.translate_nofault(iva + store_off - distance_shift)
            if store_ipa is not None and ipa_hash(store_ipa) == victim_store_hash:
                return True
        return False

    return [store_tag_matches(shift) for shift in (0, *UNEQUAL_SHIFTS)]


def psfp_candidate_rate() -> tuple[float, float]:
    """(equal-distance rate, mean different-distance rate): fraction of
    trials where some load-collision candidate also matches the store tag
    within :data:`_PSFP_PAGES` pages.  Store-tag match is checked with the
    analyst's oracle (the attack validates it by leaking a known byte).

    The different-distance rate averages over several shifts: the linked
    subtraction geometry leaves a few special shifts workable, but most
    are impossible — the paper's "may not be found" (Fig 7, right).
    """
    hits = [_psfp_hits(_PSFP_SEED + trial) for trial in range(_PSFP_TRIALS)]
    equal_hits = sum(trial[0] for trial in hits)
    unequal_hits = sum(sum(trial[1:]) for trial in hits)
    return (
        equal_hits / _PSFP_TRIALS,
        unequal_hits / (_PSFP_TRIALS * len(UNEQUAL_SHIFTS)),
    )


def run(trials: int = 12, seed: int = 900) -> ExperimentResult:
    samples = ssbp_attempt_samples(trials=trials, seed=seed)
    fit = fit_gaussian([float(s) for s in samples])
    equal_rate, unequal_rate = psfp_candidate_rate()

    result = ExperimentResult(
        experiment_id="fig7",
        title="Collision finding for SSBP and PSFP",
        headers=["quantity", "measured", "paper"],
        paper_claim=(
            "SSBP collisions need at most 4096 attempts (mean ~2200); "
            "PSFP collisions are deterministic only with equal IPA distance"
        ),
    )
    result.add_row("SSBP attempts (mean)", round(fit.mu, 1), "~2200")
    result.add_row("SSBP attempts (max observed)", max(samples), "<= 4096")
    result.add_row(
        "PSFP candidate within 16 pages (equal distance)",
        f"{equal_rate:.0%}", "> 90%",
    )
    result.add_row(
        "PSFP candidate within 16 pages (different distance)",
        f"{unequal_rate:.0%}", "may not be found",
    )
    result.metrics["ssbp_mean_attempts"] = round(fit.mu, 1)
    result.metrics["ssbp_sigma"] = round(fit.sigma, 1)
    result.metrics["psfp_equal_distance_rate"] = equal_rate
    result.metrics["psfp_unequal_distance_rate"] = unequal_rate
    result.add_note(
        "attempt counts are uniform within a page (one colliding offset "
        "per page); the paper's Gaussian arises from binning — we report "
        "the raw moments"
    )
    return result
