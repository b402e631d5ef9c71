"""Interference profiles: validation, presets, lookup."""

import pytest

from repro.interference.profile import (
    PRESET_ORDER,
    PRESETS,
    InterferenceProfile,
    get_profile,
)


class TestValidation:
    @pytest.mark.parametrize("field", ["corunner_rate", "preemption_rate", "pmc_noise"])
    @pytest.mark.parametrize("value", [-0.1, 1.5])
    def test_rates_must_be_probabilities(self, field, value):
        with pytest.raises(ValueError, match="probability"):
            InterferenceProfile(**{field: value})

    @pytest.mark.parametrize("field", ["timer_drift", "timer_jitter"])
    def test_timer_terms_bounded(self, field):
        with pytest.raises(ValueError, match=r"\[0, 0.5\]"):
            InterferenceProfile(**{field: 0.6})

    def test_negative_ops_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            InterferenceProfile(corunner_ops=-1)

    def test_drift_period_positive(self):
        with pytest.raises(ValueError, match="drift_period"):
            InterferenceProfile(drift_period=0)


class TestPresets:
    def test_quiet_is_quiet(self):
        assert PRESETS["quiet"].is_quiet

    @pytest.mark.parametrize("name", [n for n in PRESET_ORDER if n != "quiet"])
    def test_loud_presets_are_not_quiet(self, name):
        assert not PRESETS[name].is_quiet

    def test_order_covers_every_preset_mildest_first(self):
        assert set(PRESET_ORDER) == set(PRESETS)
        rates = [PRESETS[name].preemption_rate for name in PRESET_ORDER]
        assert rates == sorted(rates)

    def test_round_trips_through_dict(self):
        profile = PRESETS["adversarial"]
        assert InterferenceProfile(**profile.to_dict()) == profile


class TestLookup:
    def test_get_profile_by_name(self):
        assert get_profile("desktop") is PRESETS["desktop"]

    def test_reseeding_copies(self):
        profile = get_profile("desktop", seed=99)
        assert profile.seed == 99
        assert PRESETS["desktop"].seed == 0  # preset untouched

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown interference preset"):
            get_profile("hurricane")
