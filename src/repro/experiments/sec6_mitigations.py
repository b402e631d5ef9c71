"""E17 — Section VI: which mitigation stops which attack?

Runs reduced leak campaigns under each mitigation:

* **SSBD** stops both attacks (and all probing);
* **PSFD** stops nothing (the paper's negative result);
* **flush SSBP on context switch** stops the cross-process Spectre-CTL
  but not the same-process Spectre-STL;
* **randomized selection** (re-salt on switch/syscall) stops both
  out-of-place attacks (collisions go stale before use).
"""

from __future__ import annotations

from repro.attacks.spectre_ctl import SpectreCTL
from repro.attacks.spectre_stl import SpectreSTL
from repro.cpu.machine import Machine
from repro.errors import ReproError
from repro.experiments.base import ExperimentResult

__all__ = ["run", "stl_leak_works", "ctl_leak_works"]

_SECRET = b"\x42\xa5"


def stl_leak_works(machine: Machine) -> bool:
    """Attempt a small out-of-place Spectre-STL campaign; True when the
    secret is recovered."""
    try:
        attack = SpectreSTL(machine=machine)
        attack.find_collision()
        report = attack.leak(_SECRET)
    except ReproError:
        return False
    return report.accuracy == 1.0


def ctl_leak_works(machine: Machine) -> bool:
    """Attempt a one-byte cross-process Spectre-CTL campaign."""
    try:
        attack = SpectreCTL(machine=machine, slide_pages=8)
        attack.find_collisions()
        report = attack.leak(_SECRET[:1])
    except ReproError:
        return False
    return report.accuracy == 1.0


_MITIGATIONS: list[tuple[str, dict, dict]] = [
    # (name, machine kwargs, spec_ctrl bits)
    ("none", {}, {}),
    ("SSBD", {}, {"ssbd": True}),
    ("PSFD", {}, {"psfd": True}),
    ("flush SSBP on switch", {"flush_ssbp_on_switch": True}, {}),
    ("randomized selection", {"resalt_on_switch": True}, {}),
]

#: Expected outcome per (mitigation, attack): does the attack still work?
_PAPER_EXPECTATION: dict[tuple[str, str], bool] = {
    ("none", "stl"): True,
    ("none", "ctl"): True,
    ("SSBD", "stl"): False,
    ("SSBD", "ctl"): False,
    ("PSFD", "stl"): True,
    ("PSFD", "ctl"): True,
    ("flush SSBP on switch", "stl"): True,
    ("flush SSBP on switch", "ctl"): False,
    ("randomized selection", "stl"): False,
    ("randomized selection", "ctl"): False,
}


def run(seed: int = 616) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="sec6-mitigations",
        title="Mitigation matrix: attack viability under each defense",
        headers=["mitigation", "Spectre-STL works", "Spectre-CTL works", "matches expectation"],
        paper_claim=(
            "SSBD stops the attacks (at Fig 12's cost); PSFD does not; "
            "flushing SSBP on switches stops cross-process attacks; "
            "randomized selection defeats out-of-place collision finding"
        ),
    )
    for name, machine_kwargs, spec_bits in _MITIGATIONS:
        machine_stl = Machine(seed=seed, **machine_kwargs)
        machine_ctl = Machine(seed=seed + 1, **machine_kwargs)
        for machine in (machine_stl, machine_ctl):
            if spec_bits.get("ssbd"):
                machine.core.set_ssbd(True)
            if spec_bits.get("psfd"):
                machine.core.set_psfd(True)
        stl = stl_leak_works(machine_stl)
        ctl = ctl_leak_works(machine_ctl)
        matches = (
            stl == _PAPER_EXPECTATION[(name, "stl")]
            and ctl == _PAPER_EXPECTATION[(name, "ctl")]
        )
        result.add_row(name, stl, ctl, matches)
        result.metrics[f"{name}:stl"] = str(stl)
        result.metrics[f"{name}:ctl"] = str(ctl)
    result.add_note(
        "PSFD is modeled faithfully as ineffective (Section VI-A: the "
        "predictors continue to function with the bit set)"
    )
    return result
