"""Tests for timing classification, counter probes, and model validation."""

import pytest

from repro.core.config import default_model
from repro.core.counters import CounterState
from repro.core.exec_types import ExecType, TimingClass
from repro.cpu.machine import Machine
from repro.revng.probes import PredictorProber
from repro.revng.sequences import StldToken, parse
from repro.revng.state_infer import ModelValidator, refine_types
from repro.revng.stld import StldHarness
from repro.revng.timing import TimingClassifier


@pytest.fixture(scope="module")
def rig():
    harness = StldHarness()
    classifier = TimingClassifier(harness)
    classifier.calibrate()
    return harness, classifier


class TestCalibration:
    def test_all_six_classes_observed(self, rig):
        _, classifier = rig
        assert set(classifier.calibration.means) == set(TimingClass)

    def test_expected_ordering(self, rig):
        """Fig 2 level ordering: H < C < A/B < E/F < rollbacks."""
        _, classifier = rig
        means = classifier.calibration.means
        assert (
            means[TimingClass.BYPASS]
            < means[TimingClass.PSF_FORWARD]
            < means[TimingClass.STALL_FORWARD]
            < means[TimingClass.STALL_CACHE]
            < means[TimingClass.ROLLBACK_BYPASS]
            < means[TimingClass.ROLLBACK_FORWARD]
        )

    def test_rollback_types_are_far_slower(self, rig):
        _, classifier = rig
        means = classifier.calibration.means
        assert means[TimingClass.ROLLBACK_BYPASS] > 2 * means[TimingClass.BYPASS]

    def test_margin_exceeds_noise(self, rig):
        harness, classifier = rig
        slowest = max(classifier.calibration.means.values())
        worst_noise = slowest * harness.machine.core.model.timer_noise
        assert classifier.margin() > 2 * worst_noise

    @pytest.mark.parametrize("noise", [0.0, 0.005])
    def test_margin_survives_paper_timer_noise(self, noise):
        """The paper's RDPRU noise (< 1%) leaves the levels separable."""
        model = default_model().with_overrides(timer_noise=noise)
        harness = StldHarness(machine=Machine(model=model, seed=77))
        classifier = TimingClassifier(harness)
        classifier.calibrate()
        assert classifier.margin() >= 2.0

    def test_classify_roundtrip(self, rig):
        _, classifier = rig
        for cls, mean in classifier.calibration.means.items():
            assert classifier.classify(round(mean)) is cls

    def test_uncalibrated_classifier_raises(self):
        harness = StldHarness()
        with pytest.raises(Exception):
            TimingClassifier(harness).classify(100)


class TestProber:
    def test_read_c3_after_training(self, rig):
        harness, classifier = rig
        prober = PredictorProber(harness, classifier)
        prober.charge_c3(load_id=20, store_id=20)
        assert prober.read_c3(load_id=20) == 15

    def test_read_c3_untrained_is_zero(self, rig):
        harness, classifier = rig
        prober = PredictorProber(harness, classifier)
        assert prober.read_c3(load_id=21) == 0

    def test_clear_c3(self, rig):
        harness, classifier = rig
        prober = PredictorProber(harness, classifier)
        prober.charge_c3(load_id=22, store_id=22)
        prober.clear_c3(load_id=22)
        assert not prober.c3_is_charged(load_id=22)

    def test_psfp_trained_probe(self, rig):
        harness, classifier = rig
        prober = PredictorProber(harness, classifier)
        prober.train_psfp(load_id=23, store_id=23)
        assert prober.psfp_trained(load_id=23, store_id=23)

    def test_psfp_probe_on_fresh_pair(self, rig):
        harness, classifier = rig
        prober = PredictorProber(harness, classifier)
        assert not prober.psfp_trained(load_id=24, store_id=24)


class TestModelValidation:
    def test_random_sequences_agree_with_table_i(self, rig):
        """The Section III-B.3 result: the model explains > 99.8% of
        random-sequence observations."""
        harness, classifier = rig
        validator = ModelValidator(harness, classifier)
        report = validator.validate_random(sequences=10, length=40, seed=7)
        assert report.total == 400
        assert report.agreement > 0.998

    def test_named_sequence_validates(self, rig):
        harness, classifier = rig
        validator = ModelValidator(harness, classifier)
        report = validator.validate_sequence("3n, a, 4a, 5a, n")
        # The base variant carries state from other tests; agreement is
        # not meaningful here — only that the plumbing runs end to end.
        assert report.total == 14


class TestRefineTypes:
    def test_unambiguous_classes_pass_through(self):
        classes = [TimingClass.BYPASS, TimingClass.ROLLBACK_BYPASS]
        refined = refine_types(classes, [False, True])
        assert refined == [ExecType.H, ExecType.G]

    def test_stall_classes_split_by_model_state(self):
        # After a G the state is S1 (C3=0): stalls are A/E, not B/F.
        classes = [
            TimingClass.ROLLBACK_BYPASS,  # a -> G
            TimingClass.STALL_CACHE,      # n -> E
            TimingClass.STALL_FORWARD,    # a -> A
        ]
        refined = refine_types(classes, [True, False, True])
        assert refined == [ExecType.G, ExecType.E, ExecType.A]

    def test_sticky_state_gives_b_and_f(self):
        start = CounterState(c0=2, c1=20, c2=2, c3=10, c4=3)
        classes = [TimingClass.STALL_CACHE, TimingClass.STALL_FORWARD]
        refined = refine_types(classes, [False, True], start)
        assert refined == [ExecType.F, ExecType.B]
