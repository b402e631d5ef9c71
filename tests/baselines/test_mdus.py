"""Tests for the Intel/ARM MDU baselines (TABLE IV)."""

from repro.baselines import amd_characterization
from repro.baselines.arm_mdu import ArmMdu
from repro.baselines.intel_mdu import IntelMdu


class TestIntelMdu:
    def test_initially_conservative(self):
        assert not IntelMdu().predict_bypass(0x1234)

    def test_saturation_enables_bypass(self):
        mdu = IntelMdu()
        for _ in range(15):
            mdu.update(0x1234, aliased=False)
        assert mdu.predict_bypass(0x1234)

    def test_fourteen_is_not_enough(self):
        mdu = IntelMdu()
        for _ in range(14):
            mdu.update(0x1234, aliased=False)
        assert not mdu.predict_bypass(0x1234)

    def test_aliasing_resets(self):
        mdu = IntelMdu()
        for _ in range(15):
            mdu.update(0x1234, aliased=False)
        mdu.update(0x1234, aliased=True)
        assert not mdu.predict_bypass(0x1234)
        assert mdu.counter(0x1234) == 0

    def test_selection_by_low_eight_bits(self):
        mdu = IntelMdu()
        for _ in range(15):
            mdu.update(0x1234, aliased=False)
        # Same low 8 bits -> same entry (the Intel aliasing weakness).
        assert mdu.predict_bypass(0x9934)
        assert not mdu.predict_bypass(0x1235)

    def test_flush(self):
        mdu = IntelMdu()
        for _ in range(15):
            mdu.update(7, aliased=False)
        mdu.flush()
        assert not mdu.predict_bypass(7)

    def test_characterization_row(self):
        row = IntelMdu.characterization()
        assert row.state_bits == "4 bit"
        assert "8 bits" in row.selection
        assert row.entries == 256


class TestArmMdu:
    def test_single_clean_execution_flips(self):
        mdu = ArmMdu()
        mdu.update(0xABCD, aliased=False)
        assert mdu.predict_bypass(0xABCD)

    def test_single_aliasing_flips_back(self):
        mdu = ArmMdu()
        mdu.update(0xABCD, aliased=False)
        mdu.update(0xABCD, aliased=True)
        assert not mdu.predict_bypass(0xABCD)

    def test_selection_by_low_sixteen_bits(self):
        mdu = ArmMdu()
        mdu.update(0x1_ABCD, aliased=False)
        assert mdu.predict_bypass(0x9_ABCD)
        assert not mdu.predict_bypass(0x1_ABCE)

    def test_characterization_row(self):
        row = ArmMdu.characterization()
        assert row.state_bits == "1 bit"
        assert row.entries == 1 << 16


class TestTableIV:
    def test_amd_row(self):
        row = amd_characterization()
        assert "C3" in row.state_bits and "C4" in row.state_bits
        assert "hash" in row.selection
        assert row.entries == 4096

    def test_amd_state_machine_is_largest(self):
        """TABLE IV's point: AMD's feasible state machine (6+2 bits)
        exceeds Intel's 4 and ARM's 1."""
        amd_bits = 6 + 2
        assert amd_bits > 4 > 1

    def test_collision_cost_contrast(self):
        """Intel/ARM selection is address-derived (no search); AMD needs
        the code-sliding search of Section IV-B."""
        assert IntelMdu().collision_attempts_needed() == 1
        assert ArmMdu().collision_attempts_needed() == 1
