"""Tests for platform configuration (TABLE III models)."""

from dataclasses import replace

import pytest

from repro.core.config import CpuModel, LatencyModel, ZEN3_MODELS, default_model, get_model
from repro.errors import ConfigError


class TestRegistry:
    def test_four_platforms(self):
        assert len(ZEN3_MODELS) == 4

    def test_names_match_table_iii(self):
        assert set(ZEN3_MODELS) == {
            "ryzen9-5900x",
            "epyc-7543",
            "ryzen5-5600g",
            "ryzen7-7735hs",
        }

    def test_microcodes_match_table_iii(self):
        assert ZEN3_MODELS["ryzen9-5900x"].microcode == 0xA201205
        assert ZEN3_MODELS["epyc-7543"].microcode == 0xA001173
        assert ZEN3_MODELS["ryzen5-5600g"].microcode == 0xA50000D
        assert ZEN3_MODELS["ryzen7-7735hs"].microcode == 0xA404102

    def test_7735hs_is_zen3_plus(self):
        assert ZEN3_MODELS["ryzen7-7735hs"].microarch == "Zen 3+"

    def test_default_model(self):
        assert default_model().name == "ryzen9-5900x"

    def test_get_model_error_lists_names(self):
        with pytest.raises(ConfigError, match="ryzen9-5900x"):
            get_model("pentium3")

    def test_all_share_predictor_design(self):
        """Section III-D.3: all four CPUs share the same PSFP/SSBP design."""
        designs = {
            (m.psfp_entries, m.ssbp_sets, m.ssbp_ways) for m in ZEN3_MODELS.values()
        }
        assert designs == {(12, 8, 2)}


class TestCpuModel:
    def test_with_overrides(self):
        single = replace(default_model(), smt_threads=1)
        assert single.smt_threads == 1
        assert single.name == default_model().name
        with pytest.raises(ConfigError):
            replace(default_model(), smt_threads=4)

    def test_invalid_clock(self):
        with pytest.raises(ConfigError):
            CpuModel(name="x", clock_ghz=0)

    def test_invalid_smt(self):
        with pytest.raises(ConfigError):
            CpuModel(name="x", smt_threads=4)

    def test_invalid_noise(self):
        with pytest.raises(ConfigError):
            CpuModel(name="x", timer_noise=0.5)


class TestLatencyModel:
    def test_defaults_are_ordered(self):
        lat = LatencyModel()
        assert lat.l1_hit < lat.l2_hit < lat.l3_hit < lat.memory

    def test_inverted_hierarchy_rejected(self):
        with pytest.raises(ConfigError):
            LatencyModel(l1_hit=50, l2_hit=10)

    def test_nonpositive_latency_rejected(self):
        with pytest.raises(ConfigError):
            LatencyModel(alu=0)
