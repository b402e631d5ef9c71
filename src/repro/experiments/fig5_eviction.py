"""E6 — Fig 5: eviction rates of PSFP and SSBP vs eviction-set size.

PSFP: abrupt threshold at 12 (12-entry fully associative, LRU).
SSBP: gradual curve crossing 50% around 16 and ~90% at 32 (set-based
selection with random-looking placement).
"""

from __future__ import annotations

from repro.cpu.machine import Machine
from repro.experiments.base import ExperimentResult
from repro.revng.organization import OrganizationExperiment
from repro.revng.stld import StldHarness
from repro.revng.timing import TimingClassifier

__all__ = ["run"]


def run(
    psfp_trials: int = 6,
    ssbp_trials: int = 40,
    seed: int = 2024,
) -> ExperimentResult:
    harness = StldHarness(Machine(seed=seed))
    classifier = TimingClassifier(harness)
    classifier.calibrate()
    experiment = OrganizationExperiment(harness, classifier)

    psfp = experiment.psfp_curve(sizes=[4, 8, 10, 11, 12, 13, 16], trials=psfp_trials)
    ssbp = experiment.ssbp_curve(sizes=[2, 4, 8, 16, 24, 32, 40], trials=ssbp_trials)

    result = ExperimentResult(
        experiment_id="fig5",
        title="Eviction rate of PSFP and SSBP under different eviction sizes",
        headers=["predictor", "eviction size", "eviction rate"],
        paper_claim=(
            "PSFP: never evicted below 12, always at 12 (size = 12); "
            "SSBP: >50% at 16, ~90% at 32"
        ),
    )
    for size in sorted(psfp.rates):
        result.add_row("PSFP", size, f"{psfp.rates[size]:.0%}")
    for size in sorted(ssbp.rates):
        result.add_row("SSBP", size, f"{ssbp.rates[size]:.0%}")

    result.metrics["psfp_threshold"] = psfp.threshold(0.5) or -1
    result.metrics["ssbp_rate_at_16"] = ssbp.rates.get(16, 0.0)
    result.metrics["ssbp_rate_at_32"] = ssbp.rates.get(32, 0.0)
    result.add_note("PSFP size conclusion: 12 entries, fully associative")
    return result
