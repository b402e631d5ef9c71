"""Property tests: PredictorUnit composition vs a split-entry model.

The unit stores C0/C1/C2 per (store-hash, load-hash) pair and C3/C4 per
load hash, assembling a five-counter state per access.  A transparent
dictionary model applying the same TABLE I transition must agree with
the unit on every execution type over arbitrary access interleavings —
as long as the stream stays within the hardware capacities (the model
has no evictions).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.counters import CounterState
from repro.core.exec_types import ExecType
from repro.core.predictor_unit import PredictorUnit
from repro.core.ssbp import set_index
from repro.core.state_machine import transition

# Few enough pairs that PSFP (12 entries) never evicts, and load hashes
# in distinct SSBP sets so SSBP (2-way sets) never evicts either.
LOAD_HASHES = [h for h in range(64) if set_index(h) in (0, 1)][:2]
STORE_HASHES = [5, 9, 13]


class SplitModel:
    """The transparent reference: plain dicts, no capacity."""

    def __init__(self) -> None:
        self.psfp: dict[tuple[int, int], tuple[int, int, int]] = {}
        self.ssbp: dict[int, tuple[int, int]] = {}

    def access(self, store_hash: int, load_hash: int, aliasing: bool) -> ExecType:
        c0, c1, c2 = self.psfp.get((store_hash, load_hash), (0, 0, 0))
        c3, c4 = self.ssbp.get(load_hash, (0, 0))
        result = transition(
            CounterState(c0=c0, c1=c1, c2=c2, c3=c3, c4=c4), aliasing
        )
        after = result.state
        allocate = result.exec_type is ExecType.G
        self._write(
            self.psfp, (store_hash, load_hash),
            (after.c0, after.c1, after.c2), allocate,
        )
        self._write(self.ssbp, load_hash, (after.c3, after.c4), allocate)
        return result.exec_type

    @staticmethod
    def _write(table, key, counters, allocate) -> None:
        if not any(counters):
            table.pop(key, None)
        elif key in table or allocate:
            table[key] = counters


accesses = st.lists(
    st.tuples(
        st.sampled_from(STORE_HASHES),
        st.sampled_from(LOAD_HASHES),
        st.booleans(),
    ),
    min_size=1,
    max_size=300,
)


class TestUnitMatchesSplitModel:
    @settings(max_examples=60, deadline=None)
    @given(accesses)
    def test_exec_types_agree(self, stream):
        unit = PredictorUnit()
        model = SplitModel()
        for store_hash, load_hash, aliasing in stream:
            unit_type = unit.access(store_hash, load_hash, aliasing).exec_type
            model_type = model.access(store_hash, load_hash, aliasing)
            assert unit_type is model_type

    @settings(max_examples=30, deadline=None)
    @given(accesses)
    def test_states_agree(self, stream):
        unit = PredictorUnit()
        model = SplitModel()
        for store_hash, load_hash, aliasing in stream:
            unit.access(store_hash, load_hash, aliasing)
            model.access(store_hash, load_hash, aliasing)
        for store_hash in STORE_HASHES:
            for load_hash in LOAD_HASHES:
                expected = CounterState(
                    *model.psfp.get((store_hash, load_hash), (0, 0, 0)),
                    *model.ssbp.get(load_hash, (0, 0)),
                )
                assert CounterState(*unit.counters(store_hash, load_hash)) == expected

    @settings(max_examples=30, deadline=None)
    @given(accesses)
    def test_prediction_precedes_access_consistently(self, stream):
        """predict() must equal what access() then reports it predicted."""
        unit = PredictorUnit()
        for store_hash, load_hash, aliasing in stream:
            predicted = unit.predict(store_hash, load_hash)
            result = unit.access(store_hash, load_hash, aliasing)
            assert result.prediction == predicted
            assert result.exec_type.predicted_aliasing == predicted.aliasing

    @settings(max_examples=30, deadline=None)
    @given(accesses)
    def test_occupancy_bounded(self, stream):
        unit = PredictorUnit()
        for store_hash, load_hash, aliasing in stream:
            unit.access(store_hash, load_hash, aliasing)
            assert unit.psfp.occupancy <= unit.psfp.capacity
            assert unit.ssbp.occupancy <= unit.ssbp.capacity
