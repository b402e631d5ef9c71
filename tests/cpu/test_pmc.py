"""PMC event attribution (paper Section III-B, Fig 2's methodology).

The pipeline increments the five PPR-named events organically; these
tests pin the counter bank's semantics and then drive the stld
microbenchmark through a sequence producing **all eight execution
types**, asserting each type's per-invocation PMC delta matches its
qualitative Fig 2 profile (stall tokens for predicted-aliasing types,
rollbacks for D/G only, forwards wherever data came from the store
queue or PSF).
"""

import pytest

from repro.core.exec_types import ExecType
from repro.cpu.pmc import Pmc, PmcEvent
from repro.revng.sequences import parse
from repro.revng.stld import StldHarness

#: A probe sequence visiting every TABLE I region: the short a/n bursts
#: after the initial enable walk the sticky S2 states (types B and F),
#: which the paper's plain "40n, 40a" alternation never enters.  Checked
#: against the abstract state machine: all eight types appear.
_SEQUENCE = "6a, 20n, 6a, 4n, 3a, 3n, 40a, 40n, 40a"


class TestPmcBank:
    def test_counters_start_at_zero(self):
        pmc = Pmc()
        assert all(pmc.read(event) == 0 for event in PmcEvent.ALL)

    def test_add_and_read(self):
        pmc = Pmc()
        pmc.add(PmcEvent.STLF)
        pmc.add(PmcEvent.STLF, 2)
        assert pmc.read(PmcEvent.STLF) == 3

    def test_snapshot_covers_every_event(self):
        pmc = Pmc()
        assert set(pmc.snapshot()) == set(PmcEvent.ALL)

    def test_delta_since_isolates_a_window(self):
        pmc = Pmc()
        pmc.add(PmcEvent.LD_DISPATCH, 5)
        snapshot = pmc.snapshot()
        pmc.add(PmcEvent.LD_DISPATCH, 2)
        pmc.add(PmcEvent.ROLLBACK)
        delta = pmc.delta_since(snapshot)
        assert delta[PmcEvent.LD_DISPATCH] == 2
        assert delta[PmcEvent.ROLLBACK] == 1
        assert delta[PmcEvent.STLF] == 0


@pytest.fixture(scope="module")
def attributed():
    """(exec type, PMC delta) per stld invocation over the probe sequence."""
    harness = StldHarness()
    thread = harness.machine.core.thread(harness.thread_id)
    samples = []
    for token in parse(_SEQUENCE):
        snapshot = thread.pmc.snapshot()
        (exec_type,) = harness.run_events([token])
        samples.append((exec_type, thread.pmc.delta_since(snapshot)))
    return samples


class TestExecTypeAttribution:
    def test_all_eight_types_observed(self, attributed):
        assert {exec_type for exec_type, _ in attributed} == set(ExecType)

    def test_rollback_event_fires_for_d_and_g_only(self, attributed):
        for exec_type, delta in attributed:
            if exec_type.rollback:
                assert delta[PmcEvent.ROLLBACK] >= 1, exec_type
            else:
                assert delta[PmcEvent.ROLLBACK] == 0, exec_type

    def test_stall_tokens_follow_the_prediction(self, attributed):
        # Stalling types (A/B/E/F) burn SQ tokens waiting for the store's
        # address; bypass/PSF types don't wait, so no stall tokens.
        for exec_type, delta in attributed:
            if exec_type.stalled:
                assert delta[PmcEvent.SQ_STALL_TOKENS] > 0, exec_type
            else:
                assert delta[PmcEvent.SQ_STALL_TOKENS] == 0, exec_type

    def test_forward_event_matches_data_source(self, attributed):
        # STLF fires when the load's data came from the store queue or a
        # predictive forward; cache-sourced loads (E/F/H, and G's
        # transient bypass) never count one.
        for exec_type, delta in attributed:
            if exec_type.data_source in ("sq", "forward"):
                assert delta[PmcEvent.STLF] >= 1, exec_type
            else:
                assert delta[PmcEvent.STLF] == 0, exec_type

    def test_every_invocation_dispatches_loads_and_retires(self, attributed):
        for exec_type, delta in attributed:
            assert delta[PmcEvent.LD_DISPATCH] >= 1, exec_type
            assert delta[PmcEvent.RETIRED_OPS] > 0, exec_type

    def test_rollback_types_redispatch_the_load(self, attributed):
        # A squash replays the wrong path, so D/G dispatch strictly more
        # loads than the fastest clean type observed.
        clean_min = min(
            delta[PmcEvent.LD_DISPATCH]
            for exec_type, delta in attributed
            if not exec_type.rollback
        )
        for exec_type, delta in attributed:
            if exec_type.rollback:
                assert delta[PmcEvent.LD_DISPATCH] > clean_min, exec_type
