"""Unit tests for counter clamping and the five-counter state."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.counters import (
    C0_MAX,
    C1_MAX,
    C2_MAX,
    C3_MAX,
    C4_MAX,
    CounterState,
    clamp,
)


class TestClamp:
    def test_inside_range(self):
        assert clamp(3, 0, 5) == 3

    def test_below(self):
        assert clamp(-2, 0, 5) == 0

    def test_above(self):
        assert clamp(9, 0, 5) == 5

    def test_boundaries(self):
        assert clamp(0, 0, 5) == 0
        assert clamp(5, 0, 5) == 5

    @given(st.integers(-1000, 1000), st.integers(-50, 50), st.integers(0, 100))
    def test_result_always_in_range(self, value, lo, span):
        hi = lo + span
        assert lo <= clamp(value, lo, hi) <= hi


counter_states = st.builds(
    CounterState,
    c0=st.integers(-2, C0_MAX + 2),
    c1=st.integers(-2, C1_MAX + 2),
    c2=st.integers(-2, C2_MAX + 2),
    c3=st.integers(-2, C3_MAX + 2),
    c4=st.integers(-2, C4_MAX + 2),
)


class TestCounterState:
    def test_clamps_on_construction(self):
        state = CounterState(c0=99, c1=-5, c3=100)
        assert state.c0 == C0_MAX
        assert state.c1 == 0
        assert state.c3 == C3_MAX

    def test_with_updates_clamps(self):
        state = CounterState().with_updates(c1=500)
        assert state.c1 == C1_MAX

    def test_with_updates_preserves_others(self):
        state = CounterState(c0=2, c2=1).with_updates(c1=5)
        assert (state.c0, state.c1, state.c2) == (2, 5, 1)

    def test_as_tuple(self):
        assert CounterState(c0=1, c3=2).as_tuple() == (1, 0, 0, 2, 0)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            CounterState().c0 = 1  # type: ignore[misc]

    def test_str_mentions_all_counters(self):
        text = str(CounterState(c0=4, c1=16, c2=2, c3=15, c4=3))
        for fragment in ("C0=4", "C1=16", "C2=2", "C3=15", "C4=3"):
            assert fragment in text

    @given(counter_states)
    def test_always_within_bounds(self, state):
        assert 0 <= state.c0 <= C0_MAX
        assert 0 <= state.c1 <= C1_MAX
        assert 0 <= state.c2 <= C2_MAX
        assert 0 <= state.c3 <= C3_MAX
        assert 0 <= state.c4 <= C4_MAX

    @given(counter_states)
    def test_hashable_and_equal_by_value(self, state):
        clone = CounterState(*state.as_tuple())
        assert clone == state
        assert hash(clone) == hash(state)
