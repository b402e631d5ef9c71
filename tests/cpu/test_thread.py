"""HardwareThread semantics: SMT partitioning and flush hooks.

Section IV-A: PSFP and SSBP are partitioned (likely duplicated) between
the two SMT threads of a core, so training on one sibling must never
move the other sibling's predictor state.  The kernel-visible hooks
follow Section IV-A/VI-B: a context switch flushes PSFP but (vulnerably)
not SSBP unless the mitigation is on; suspension flushes both.
"""

import pytest

from repro.core.config import default_model
from repro.core.counters import CounterState
from repro.core.spec_ctrl import SpecCtrl
from repro.cpu.machine import Machine
from repro.cpu.thread import HardwareThread

_STORE, _LOAD = 0x11, 0x22


def make_thread(thread_id: int = 0) -> HardwareThread:
    return HardwareThread(thread_id, default_model(), SpecCtrl())


def train(thread: HardwareThread, rounds: int = 6) -> None:
    """Aliasing accesses until the pair's counters are clearly non-zero."""
    for _ in range(rounds):
        thread.unit.access(_STORE, _LOAD, aliasing=True)


class TestPerThreadState:
    def test_threads_own_private_structures(self):
        a, b = make_thread(0), make_thread(1)
        assert a.unit is not b.unit
        assert a.store_queue is not b.store_queue
        assert a.pmc is not b.pmc

    def test_training_one_sibling_leaves_the_other_cold(self):
        a, b = make_thread(0), make_thread(1)
        train(a)
        assert CounterState(*a.unit.counters(_STORE, _LOAD)) != CounterState()
        assert CounterState(*b.unit.counters(_STORE, _LOAD)) == CounterState()

    def test_smt_siblings_of_one_core_are_isolated(self):
        # The same invariant through the real machine: both siblings see
        # the same (store, load) hashes, only thread 0 trains.
        machine = Machine(seed=7)
        t0 = machine.core.thread(0)
        t1 = machine.core.thread(1)
        train(t0)
        assert CounterState(*t0.unit.counters(_STORE, _LOAD)) != CounterState()
        assert CounterState(*t1.unit.counters(_STORE, _LOAD)) == CounterState()

    def test_cycles_advance_monotonically(self):
        thread = make_thread()
        thread.advance(10)
        thread.advance(0)
        assert thread.cycles == 10
        with pytest.raises(ValueError):
            thread.advance(-1)


class TestFlushHooks:
    def test_context_switch_flushes_psfp_not_ssbp(self):
        thread = make_thread()
        train(thread)
        assert thread.unit.psfp.occupancy > 0
        assert thread.unit.ssbp.occupancy > 0
        thread.on_context_switch(next_pid=42)
        assert thread.unit.psfp.occupancy == 0
        assert thread.unit.ssbp.occupancy > 0  # Vulnerability: SSBP survives
        assert thread.current_pid == 42
        assert thread.unit.context_switches == 1

    def test_context_switch_can_flush_ssbp(self):
        thread = make_thread()
        train(thread)
        thread.on_context_switch(next_pid=1, flush_ssbp=True)
        assert thread.unit.psfp.occupancy == 0
        assert thread.unit.ssbp.occupancy == 0

    def test_suspend_flushes_both_predictors(self):
        thread = make_thread()
        train(thread)
        thread.on_suspend()
        assert thread.unit.psfp.occupancy == 0
        assert thread.unit.ssbp.occupancy == 0
        assert thread.unit.suspends == 1

    def test_flushes_do_not_leak_to_the_sibling(self):
        a, b = make_thread(0), make_thread(1)
        train(a)
        train(b)
        a.on_suspend()
        assert a.unit.ssbp.occupancy == 0
        assert b.unit.ssbp.occupancy > 0
