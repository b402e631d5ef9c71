"""E16 — TABLE IV: MDU/SSBP characterization across vendors.

Reproduces the comparison rows and demonstrates the security-relevant
difference operationally: Intel/ARM selection is computable from the
attacker's own addresses (collisions are free), while AMD's hashed-IPA
selection forces the code-sliding search measured in the Fig 7
experiment.
"""

from __future__ import annotations

from repro.baselines import amd_characterization
from repro.baselines.arm_mdu import ArmMdu
from repro.baselines.intel_mdu import IntelMdu
from repro.experiments.base import ExperimentResult
from repro.experiments.fig7_collisions import ssbp_attempt_samples

__all__ = ["run"]


def run(collision_trials: int = 4, seed: int = 4000) -> ExperimentResult:
    intel = IntelMdu.characterization()
    arm = ArmMdu.characterization()
    amd = amd_characterization()
    amd_attempts = ssbp_attempt_samples(trials=collision_trials, seed=seed)
    amd_mean = sum(amd_attempts) / len(amd_attempts)

    result = ExperimentResult(
        experiment_id="table4",
        title="Characterization of MDU and SSBP (Intel / ARM / AMD)",
        headers=["vendor", "state machine size", "selection", "collision cost"],
        paper_claim=(
            "AMD's state machine (6+2 bits) and whole-IPA hashed "
            "selection exceed Intel's (4 bit, low-8 IVA/IPA) and ARM's "
            "(1 bit, low-16 IVA)"
        ),
    )
    result.add_row(
        intel.vendor, intel.state_bits, intel.selection,
        f"{IntelMdu().collision_attempts_needed()} (computed)",
    )
    result.add_row(
        arm.vendor, arm.state_bits, arm.selection,
        f"{ArmMdu().collision_attempts_needed()} (computed)",
    )
    result.add_row(
        amd.vendor, amd.state_bits, amd.selection,
        f"~{amd_mean:.0f} probes (searched)",
    )
    result.metrics["amd_mean_collision_attempts"] = round(amd_mean, 1)
    return result
