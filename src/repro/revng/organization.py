"""Predictor organization experiments: eviction-set sizing (paper Fig 5).

The paper sizes PSFP and SSBP by training a *base entry*, priming the
structure with ``k`` other entries, and probing whether the base entry
survived.  PSFP shows an abrupt threshold at 12 (fully associative, LRU);
SSBP shows a gradual curve (complex set-based selection) that crosses 50%
around 16 and reaches ~90% at 32.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.revng.probes import PredictorProber
from repro.revng.sequences import StldToken
from repro.revng.stld import StldHarness
from repro.revng.timing import TimingClassifier

__all__ = ["EvictionCurve", "OrganizationExperiment"]

#: Private, recycled id range for the priming variants: ids are forgotten
#: (and re-placed at new random hashes) every trial, because only 4096
#: distinct load hashes exist.
_PRIME_IDS_BASE = 102_000


@dataclass
class EvictionCurve:
    """Eviction rate per eviction-set size (one Fig 5 series)."""

    predictor: str
    rates: dict[int, float] = field(default_factory=dict)

    def threshold(self, level: float = 0.5) -> int | None:
        """Smallest eviction size whose rate reaches ``level``."""
        for size in sorted(self.rates):
            if self.rates[size] >= level:
                return size
        return None


class OrganizationExperiment:
    """Runs the Fig 5 eviction-rate measurements on a harness."""

    def __init__(self, harness: StldHarness, classifier: TimingClassifier) -> None:
        self.harness = harness
        self.classifier = classifier
        self.prober = PredictorProber(harness, classifier)

    # ------------------------------------------------------------------
    def _prime(self, size: int) -> None:
        """Run one aliasing pair (a G event) on ``size`` brand-new priming
        variants with random, pairwise-distinct hashes (independent
        trials, like the paper's randomly chosen eviction sets); the
        harness machine's RNG places them."""
        ids = range(_PRIME_IDS_BASE, _PRIME_IDS_BASE + size)
        self.harness.forget_ids(set(ids))
        for vid in ids:
            self.harness.run_token(StldToken(True, load_id=vid, store_id=vid))

    # ------------------------------------------------------------------
    def psfp_trial(self, eviction_size: int) -> bool:
        """One PSFP trial; returns True when the base entry was evicted."""
        self.classifier.flush_training_state()
        self.prober.train_psfp(load_id=0, store_id=0)
        self._prime(eviction_size)
        return not self.prober.psfp_trained(load_id=0, store_id=0)

    def ssbp_trial(self, eviction_size: int) -> bool:
        """One SSBP trial; returns True when the base entry was evicted."""
        self.classifier.flush_training_state()
        self.prober.charge_c3(load_id=0, store_id=0)
        self._prime(eviction_size)
        return not self.prober.c3_is_charged(load_id=0)

    # ------------------------------------------------------------------
    def psfp_curve(
        self, sizes: list[int] | None = None, trials: int = 10
    ) -> EvictionCurve:
        sizes = sizes if sizes is not None else [4, 8, 10, 11, 12, 13, 16]
        curve = EvictionCurve(predictor="PSFP")
        for size in sizes:
            evicted = sum(self.psfp_trial(size) for _ in range(trials))
            curve.rates[size] = evicted / trials
        return curve

    def ssbp_curve(
        self, sizes: list[int] | None = None, trials: int = 20
    ) -> EvictionCurve:
        sizes = sizes if sizes is not None else [2, 4, 8, 16, 24, 32, 40]
        curve = EvictionCurve(predictor="SSBP")
        for size in sizes:
            evicted = sum(self.ssbp_trial(size) for _ in range(trials))
            curve.rates[size] = evicted / trials
        return curve
