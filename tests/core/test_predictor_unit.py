"""Tests for the combined predictor unit (PSFP + SSBP + TABLE I)."""

import pytest

from repro.core.counters import CounterState
from repro.core.exec_types import ExecType
from repro.core.predictor_unit import PredictorUnit
from repro.core.spec_ctrl import SpecCtrl
from repro.core.state_machine import run_sequence
from repro.revng.sequences import to_bools


def run_unit(unit: PredictorUnit, sequence: str, store=0, load=0):
    """Run a plain sequence through the unit at fixed hashes."""
    return [
        unit.access(store, load, aliasing).exec_type
        for aliasing in to_bools(sequence)
    ]


class TestEquivalenceWithPureStateMachine:
    @pytest.mark.parametrize(
        "sequence",
        ["7n, a", "n, a, 7n", "a, 4n, a, 4n, a, 16n", "7n, a, 7n, a, 7n, a, 32n"],
    )
    def test_fixed_pair_matches_reference_model(self, sequence):
        unit = PredictorUnit()
        got = run_unit(unit, sequence)
        want, _ = run_sequence(CounterState(), to_bools(sequence))
        assert got == want

    def test_state_for_reflects_counters(self):
        unit = PredictorUnit()
        run_unit(unit, "7n, a")
        assert CounterState(*unit.counters(0, 0)) == CounterState(c0=4, c1=16, c2=2, c3=0, c4=1)


class TestSelectionKeys:
    def test_psfp_keyed_by_both_hashes(self):
        """A different store hash selects a fresh PSFP entry (TABLE II, C0)."""
        unit = PredictorUnit()
        run_unit(unit, "7n, a")  # train (0, 0)
        state = CounterState(*unit.counters(store_hash=1, load_hash=0))
        assert (state.c0, state.c1, state.c2) == (0, 0, 0)

    def test_ssbp_keyed_by_load_hash_only(self):
        """C3/C4 are shared across store hashes (TABLE II, C3/C4 rows)."""
        unit = PredictorUnit()
        run_unit(unit, "7n, a, 7n, a, 7n, a")  # charge C3 via load hash 0
        state = CounterState(*unit.counters(store_hash=9, load_hash=0))
        assert state.c3 == 15
        assert state.c4 == 3

    def test_different_load_hash_sees_nothing(self):
        unit = PredictorUnit()
        run_unit(unit, "7n, a, 7n, a, 7n, a")
        state = CounterState(*unit.counters(store_hash=0, load_hash=1))
        assert state == CounterState()

    def test_c4_accumulates_across_store_hashes(self):
        """G events from different store IPAs still count toward the same
        SSBP entry (TABLE II C4 row: three out-of-place Gs charge C3)."""
        unit = PredictorUnit()
        for store in (1, 2):
            run_unit(unit, "7n, a", store=store, load=0)
            run_unit(unit, "39n", store=store, load=0)
        run_unit(unit, "7n, a", store=3, load=0)
        assert CounterState(*unit.counters(0, 0)).c3 == 15
        # and the paper's probe: phi(35n) = (15F, 20H) at yet another store
        types = run_unit(unit, "35n", store=4, load=0)
        from repro.revng.sequences import format_types

        assert format_types(types) == "15F, 20H"


class TestAllocationPolicy:
    def test_n_only_sequences_allocate_nothing(self):
        unit = PredictorUnit()
        for load in range(30):
            run_unit(unit, "10n", store=load, load=load)
        assert unit.psfp.occupancy == 0
        assert unit.ssbp.occupancy == 0

    def test_g_event_allocates_both(self):
        unit = PredictorUnit()
        result = unit.access(3, 7, aliasing=True)
        assert result.exec_type is ExecType.G
        assert unit.psfp.occupancy == 1
        assert unit.ssbp.occupancy == 1


class TestFlushSemantics:
    def _train(self, unit):
        run_unit(unit, "7n, a, 7n, a, 7n, a")

    def test_context_switch_flushes_psfp_only(self):
        unit = PredictorUnit()
        self._train(unit)
        unit.on_context_switch()
        assert unit.psfp.occupancy == 0
        assert unit.ssbp.occupancy == 1
        assert CounterState(*unit.counters(0, 0)).c3 == 15

    def test_context_switch_with_mitigation_flushes_ssbp(self):
        unit = PredictorUnit()
        self._train(unit)
        unit.on_context_switch(flush_ssbp=True)
        assert unit.ssbp.occupancy == 0

    def test_suspend_flushes_both(self):
        unit = PredictorUnit()
        self._train(unit)
        unit.on_suspend()
        assert unit.psfp.occupancy == 0
        assert unit.ssbp.occupancy == 0


class TestSsbd:
    def test_ssbd_pins_block_state(self):
        """Section VI-A: with SSBD, phi(n) = E and phi(a) = A, always."""
        spec = SpecCtrl()
        spec.ssbd = True
        unit = PredictorUnit(spec_ctrl=spec)
        assert run_unit(unit, "5n") == [ExecType.E] * 5
        assert run_unit(unit, "5a") == [ExecType.A] * 5

    def test_ssbd_blocks_learning(self):
        spec = SpecCtrl()
        spec.ssbd = True
        unit = PredictorUnit(spec_ctrl=spec)
        run_unit(unit, "7n, a, 7n, a, 7n, a")
        assert unit.psfp.occupancy == 0
        assert unit.ssbp.occupancy == 0

    def test_ssbd_prediction_always_aliasing(self):
        spec = SpecCtrl()
        spec.ssbd = True
        unit = PredictorUnit(spec_ctrl=spec)
        pred = unit.predict(0, 0)
        assert pred.aliasing and not pred.psf_forward

    def test_ssbd_can_be_toggled_off(self):
        spec = SpecCtrl()
        spec.ssbd = True
        unit = PredictorUnit(spec_ctrl=spec)
        spec.ssbd = False
        assert run_unit(unit, "n") == [ExecType.H]

    def test_psfd_does_not_stop_the_predictors(self):
        """Section VI-A: PSFD is observable but ineffective."""
        spec = SpecCtrl()
        spec.psfd = True
        unit = PredictorUnit(spec_ctrl=spec)
        got = run_unit(unit, "7n, a, 7n")
        want, _ = run_sequence(CounterState(), to_bools("7n, a, 7n"))
        assert got == want


class TestStats:
    def test_exec_type_counts(self):
        unit = PredictorUnit()
        run_unit(unit, "7n, a")
        assert unit.exec_type_counts[ExecType.H] == 7
        assert unit.exec_type_counts[ExecType.G] == 1

    def test_repr(self):
        unit = PredictorUnit()
        text = repr(unit)
        assert "psfp=0/12" in text
        assert "ssbd=False" in text
