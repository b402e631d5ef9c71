"""Timing-based execution-type classification (paper Section III-B).

The paper identifies six execution-time levels and attributes them to the
eight execution types.  :class:`TimingClassifier` reproduces the method:
it drives scratch stld variants into *known* predictor states (verified
against the TABLE I reference model), records the measured cycles of each
known type, and derives per-class timing centroids.  Unknown measurements
are then classified by nearest centroid.

A and B (and E and F) are indistinguishable by time — the paper separates
them with the inferred state machine, which
:mod:`repro.revng.state_infer` models.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

from repro.core.counters import CounterState
from repro.core.exec_types import TIMING_CLASS, TimingClass
from repro.core.state_machine import run_sequence as model_run
from repro.errors import ReproError
from repro.revng.sequences import StldToken, parse
from repro.revng.stld import StldHarness

__all__ = [
    "CALIBRATION_SEQUENCE",
    "CalibrationResult",
    "CentroidClassifier",
    "TimingClassifier",
    "collect_calibration",
    "mad",
    "median",
]

#: A sequence that visits every timing class from a fresh entry:
#: 3H, G, 4A, 5C, D, C, D (reaching Block), 3E, 2A.
CALIBRATION_SEQUENCE = "3n, a, 4a, 5a, n, a, n, 3n, 2a"


def median(values: "list[float] | list[int]") -> float:
    """Median without :mod:`statistics` (kept dependency-light)."""
    if not values:
        raise ReproError("median of an empty sample")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def mad(values: "list[float] | list[int]", center: float | None = None) -> float:
    """Median absolute deviation — the outlier-robust spread estimate
    the hardened calibration thresholds on (a single preempted probe can
    be thousands of cycles off; it moves a mean, not a median)."""
    if not values:
        return 0.0
    center = median(values) if center is None else center
    return median([abs(v - center) for v in values])


@dataclass
class CalibrationResult:
    """Per-class timing statistics gathered during calibration."""

    samples: dict[TimingClass, list[int]] = field(default_factory=dict)

    def add(self, timing_class: TimingClass, cycles: int) -> None:
        self.samples.setdefault(timing_class, []).append(cycles)

    @property
    def means(self) -> dict[TimingClass, float]:
        return {
            cls: sum(values) / len(values)
            for cls, values in self.samples.items()
            if values
        }

    @property
    def medians(self) -> dict[TimingClass, float]:
        """Outlier-robust per-class centers (the hardened fit path)."""
        return {
            cls: median(values)
            for cls, values in self.samples.items()
            if values
        }

    def mad(self, timing_class: TimingClass) -> float:
        """Outlier-robust per-class spread."""
        return mad(self.samples.get(timing_class, []))


def collect_calibration(
    probes: Iterable[Callable[[bool], int]],
    psf_supported: bool = True,
    require_all: bool = True,
) -> CalibrationResult:
    """Run :data:`CALIBRATION_SEQUENCE` through each probe and label
    every measurement with the timing class TABLE I predicts for it.

    A probe executes one stld (aliasing or not) on an entry that starts
    fresh and returns the measured cycles.  With ``require_all`` every
    timing class must have been seen.
    """
    tokens = parse(CALIBRATION_SEQUENCE)
    expected, _ = model_run(
        CounterState(), [token.aliasing for token in tokens], psf_supported
    )
    result = CalibrationResult()
    for probe in probes:
        for exec_type, token in zip(expected, tokens):
            result.add(TIMING_CLASS[exec_type], probe(token.aliasing))
    if require_all and set(result.means) != set(TimingClass):
        missing = sorted(cls.name for cls in set(TimingClass) - set(result.means))
        raise ReproError(f"calibration missed timing classes: {missing}")
    return result


class CentroidClassifier:
    """Nearest-centroid timing classification (the shared mechanism).

    Both the privileged reverse-engineering classifier and the
    unprivileged attacker classifier reduce to this: per-class timing
    centroids learned from measurements of known states.
    """

    def __init__(self) -> None:
        self.calibration: CalibrationResult | None = None
        self._centroids: list[tuple[float, TimingClass]] = []
        self._scales: dict[TimingClass, float] = {}

    def fit(self, calibration: CalibrationResult, robust: bool = False) -> None:
        """Learn centroids from ``calibration``.

        The default fit uses per-class means — the paper's method, and
        exact on a quiet machine.  ``robust=True`` switches to per-class
        medians with MAD scales, which a handful of preemption-inflated
        samples cannot drag; the hardened attack paths use it whenever
        an interference model is attached.
        """
        self.calibration = calibration
        centers = calibration.medians if robust else calibration.means
        # Sort by centroid only: a coarse timer can quantize two classes
        # onto the same reading (their order is then arbitrary).
        self._centroids = sorted(
            ((center, cls) for cls, center in centers.items()),
            key=lambda pair: pair[0],
        )
        self._scales = {cls: calibration.mad(cls) for cls in centers}

    def classify(self, cycles: int) -> TimingClass:
        """Nearest-centroid classification of one measurement."""
        if not self._centroids:
            raise ReproError("classifier is not calibrated; call calibrate()")
        best = min(self._centroids, key=lambda pair: abs(pair[0] - cycles))
        return best[1]

    def classify_all(self, measurements: list[int]) -> list[TimingClass]:
        return [self.classify(cycles) for cycles in measurements]

    def margin(self) -> float:
        """Smallest gap between adjacent class centroids (robustness)."""
        if len(self._centroids) < 2:
            return 0.0
        return min(
            self._centroids[i + 1][0] - self._centroids[i][0]
            for i in range(len(self._centroids) - 1)
        )

    def separability(self) -> float:
        """Worst adjacent-pair gap over combined noise scale.

        For every adjacent centroid pair the gap is divided by the sum
        of the two classes' MAD scales (floored at one cycle, the timer
        granularity).  Values well above 1 mean the classes are cleanly
        separated at this noise level; the robust calibration loop
        retries while this check fails.
        """
        if len(self._centroids) < 2:
            return 0.0
        worst = float("inf")
        for i in range(len(self._centroids) - 1):
            low, low_cls = self._centroids[i]
            high, high_cls = self._centroids[i + 1]
            scale = max(
                1.0, self._scales.get(low_cls, 0.0) + self._scales.get(high_cls, 0.0)
            )
            worst = min(worst, (high - low) / scale)
        return worst


class TimingClassifier(CentroidClassifier):
    """Maps measured stld cycles to timing classes on a privileged harness."""

    def __init__(self, harness: StldHarness) -> None:
        super().__init__()
        self.harness = harness

    def calibrate(
        self,
        variants: int = 3,
        psf_supported: bool = True,
        require_all: bool = True,
    ) -> CalibrationResult:
        """Drive scratch stld variants through known states and record
        each type's timing.  The scratch variants use private (negative)
        hash ids so they cannot collide with experiment variants, and the
        predictors are flushed afterwards (a ``sleep`` flushes both).

        On a PSF-less core (Zen 2), pass ``psf_supported=False`` so the
        expected labels follow the SSBP-only dynamics, and
        ``require_all=False`` since the PSF classes never occur there.
        """
        harness = self.harness

        def scratch_probe(scratch_id: int) -> Callable[[bool], int]:
            return lambda aliasing: harness.run_token(
                StldToken(aliasing, load_id=scratch_id, store_id=scratch_id)
            )

        result = collect_calibration(
            [scratch_probe(-(10 + index)) for index in range(variants)],
            psf_supported,
            require_all,
        )
        self.fit(result)
        self.flush_training_state()
        return result

    def flush_training_state(self) -> None:
        """Suspend/resume the harness process: flushes both predictors
        (Section IV-A), clearing the calibration's training residue (and
        an eviction trial's, for :mod:`repro.revng.organization`)."""
        kernel = self.harness.kernel
        kernel.sleep(self.harness.process, self.harness.thread_id)
        kernel.wake(self.harness.process)
        kernel.schedule(self.harness.process, self.harness.thread_id)
