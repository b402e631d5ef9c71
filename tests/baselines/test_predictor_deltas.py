"""Predictor-behavior deltas: Intel/ARM baselines vs the AMD model.

TABLE IV's qualitative contrasts, pinned as executable facts against the
actual models.  Each test states one delta the paper's attacks depend
on; if a refactor of either side erodes the delta, the attack narrative
(and the TABLE IV row) must be revisited, not just the test.
"""

from repro.baselines.arm_mdu import ArmMdu
from repro.baselines.intel_mdu import IntelMdu
from repro.core.counters import CounterState
from repro.core.exec_types import ExecType
from repro.core.hashfn import HASH_BITS, ipa_hash
from repro.core.state_machine import run_sequence

#: The (7 non-aliasing, 1 aliasing) x 3 charge the attacks use.
_CHARGE = ([False] * 7 + [True]) * 3


def _amd_tail_after_charge(drains: int = 40) -> list[ExecType]:
    types, _ = run_sequence(CounterState(), _CHARGE + [False] * drains)
    return types[len(_CHARGE):]


class TestRetrainingSpeedDelta:
    """AMD's stickiness outlives both baselines' memory by an order of
    magnitude — the property the collision scan's 'sticky' test and the
    covert channel's symbol hold time rest on."""

    def test_amd_stall_survives_fifteen_clean_runs(self):
        tail = _amd_tail_after_charge()
        sticky = 0
        for exec_type in tail:
            if exec_type is ExecType.H:
                break
            sticky += 1
        assert sticky == 15

    def test_intel_forgets_an_aliasing_event_after_fifteen_clean_runs(self):
        mdu = IntelMdu()
        for _ in range(15):
            mdu.update(0x40, aliased=False)
        assert mdu.predict_bypass(0x40)
        mdu.update(0x40, aliased=True)
        for count in range(15):
            assert not mdu.predict_bypass(0x40), f"bypass after {count} cleans"
            mdu.update(0x40, aliased=False)
        assert mdu.predict_bypass(0x40)

    def test_arm_forgets_an_aliasing_event_after_one_clean_run(self):
        mdu = ArmMdu()
        mdu.update(0x40, aliased=True)
        assert not mdu.predict_bypass(0x40)
        mdu.update(0x40, aliased=False)
        assert mdu.predict_bypass(0x40)


class TestChargeAsymmetryDelta:
    """On AMD, three aliasing events buy fifteen observable stalls (a 5x
    amplification the covert channel transmits through).  On the
    baselines the effect of an aliasing event is at most 1:1 in ARM's
    case and must be rebuilt run-by-run in Intel's."""

    def test_amd_amplifies_aliasing_events(self):
        aliasing_events = sum(_CHARGE)
        tail = _amd_tail_after_charge()
        observable_stalls = sum(t is not ExecType.H for t in tail)
        assert observable_stalls == 5 * aliasing_events

    def test_arm_observable_effect_is_one_run(self):
        mdu = ArmMdu()
        mdu.update(0x40, aliased=False)
        mdu.update(0x40, aliased=True)  # one event...
        assert not mdu.predict_bypass(0x40)
        mdu.update(0x40, aliased=False)  # ...erased by one clean run
        assert mdu.predict_bypass(0x40)

    def test_intel_bypass_needs_full_saturation_from_scratch(self):
        mdu = IntelMdu()
        mdu.update(0x40, aliased=True)
        cleans = 0
        while not mdu.predict_bypass(0x40):
            mdu.update(0x40, aliased=False)
            cleans += 1
        assert cleans == IntelMdu.COUNTER_MAX


class TestSelectionDelta:
    """Intel/ARM select entries by the address's literal low bits — the
    attacker computes its collision.  AMD folds all 48 IPA bits through
    the hash, so equal low bits do NOT imply a shared entry and the
    attacker must search by code sliding (Section IV-B)."""

    def test_equal_low_bits_collide_on_baselines(self):
        intel = IntelMdu()
        for _ in range(15):
            intel.update(0x1234, aliased=False)
        assert intel.predict_bypass(0x1234 + (1 << IntelMdu.INDEX_BITS))
        arm = ArmMdu()
        arm.update(0xABCD, aliased=False)
        assert arm.predict_bypass(0xABCD + (1 << ArmMdu.INDEX_BITS))

    def test_equal_low_bits_do_not_collide_on_amd(self):
        assert ipa_hash(0x1234) != ipa_hash(0x1234 + (1 << IntelMdu.INDEX_BITS))
        assert ipa_hash(0xABCD) != ipa_hash(0xABCD + (1 << ArmMdu.INDEX_BITS))

    def test_amd_upper_ipa_bits_reach_the_index(self):
        # Flipping a bit far above the index width moves the AMD entry
        # (usually), never the baselines' entries.
        moved = sum(
            ipa_hash(iva) != ipa_hash(iva | 1 << 40)
            for iva in range(0, 1 << 12, 64)
        )
        assert moved > 0
        assert IntelMdu.index(0x34) == IntelMdu.index(0x34 | 1 << 40)
        assert ArmMdu.index(0x34) == ArmMdu.index(0x34 | 1 << 40)

    def test_collision_search_cost_contrast(self):
        # Baselines: direct computation.  AMD: one colliding page offset
        # among 2**HASH_BITS positions, found only by sliding.
        assert IntelMdu().collision_attempts_needed() == 1
        assert ArmMdu().collision_attempts_needed() == 1
        assert (1 << HASH_BITS) == 4096
