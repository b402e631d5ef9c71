"""Outlier-robust calibration: median/MAD fits and separability."""

import pytest

from repro.core.exec_types import TimingClass
from repro.errors import ReproError
from repro.revng.timing import CalibrationResult, CentroidClassifier, mad, median


class TestMedianMad:
    def test_median_odd_even(self):
        assert median([3, 1, 2]) == 2.0
        assert median([4, 1, 3, 2]) == 2.5

    def test_median_empty_raises(self):
        with pytest.raises(ReproError):
            median([])

    def test_mad_of_tight_cluster(self):
        assert mad([10, 10, 11, 10, 9]) == 0.0  # median deviation is 0

    def test_mad_ignores_a_single_outlier(self):
        clean = [100, 101, 99, 100, 102, 98, 100]
        assert mad(clean + [5000]) <= mad(clean) + 1.0

    def test_mad_empty_is_zero(self):
        assert mad([]) == 0.0


def _calibration(bypass, stall):
    result = CalibrationResult()
    for cycles in bypass:
        result.add(TimingClass.BYPASS, cycles)
    for cycles in stall:
        result.add(TimingClass.STALL_CACHE, cycles)
    return result


class TestRobustFit:
    def test_default_fit_uses_means(self):
        classifier = CentroidClassifier()
        classifier.fit(_calibration([10, 10, 70], [100, 100, 100]))
        # The outlier drags the mean to 30: a reading of 60 lands on the
        # bypass side even though every typical bypass was 10.
        assert classifier.classify(60) is TimingClass.BYPASS

    def test_robust_fit_shrugs_off_a_preempted_sample(self):
        classifier = CentroidClassifier()
        classifier.fit(_calibration([10, 10, 70], [100, 100, 100]), robust=True)
        # Median centroid stays at 10, so 60 correctly reads as stall.
        assert classifier.classify(60) is TimingClass.STALL_CACHE

    def test_uncalibrated_classifier_raises(self):
        with pytest.raises(ReproError, match="not calibrated"):
            CentroidClassifier().classify(10)


class TestSeparability:
    def test_clean_gap_scores_high(self):
        classifier = CentroidClassifier()
        classifier.fit(
            _calibration([10, 10, 11, 10], [100, 100, 101, 100]), robust=True
        )
        assert classifier.separability() > 10

    def test_overlapping_classes_score_low(self):
        classifier = CentroidClassifier()
        classifier.fit(
            _calibration([10, 40, 20, 35], [30, 55, 45, 28]), robust=True
        )
        assert classifier.separability() < 1.2

    def test_single_class_has_no_separation(self):
        classifier = CentroidClassifier()
        classifier.fit(_calibration([10, 10], []), robust=True)
        assert classifier.separability() == 0.0
