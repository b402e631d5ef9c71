"""Property test: delta-journal restore == the old full-copy restore.

The pipeline's rollback machinery keeps an undo journal instead of
copying the register file at every snapshot (see ``_Snapshot`` in
:mod:`repro.cpu.pipeline`).  This test pins the equivalence the design
relies on: at every ``_restore`` during randomized speculation-heavy
fuzz programs, undoing the journal must leave ``regs``/``ready`` exactly
— including dict insertion order — as a full copy taken at ``_snapshot``
time would have.

The programs come from the campaign fuzz generator, so the nesting
shapes covered are the ones production runs actually produce: branch
windows containing speculated loads, memory squashes cancelling stale
windows, fault windows, and repeated restores of the same rollback
point after a replay.

Cases also run under each mitigation mode (``none``/``ssbd``/``fence``)
so mitigation-induced scheduling differences cannot hide a journal bug.
"""

import random

import pytest

from repro.cpu import pipeline as pipeline_mod
from repro.fuzz.gen import fuzz_program
from repro.fuzz.harness import execute_program
from repro.mitigations import MITIGATIONS


@pytest.fixture()
def shadow_verifier(monkeypatch):
    """Wrap _snapshot/_restore with a full-copy shadow checker."""
    state = {"snapshots": {}, "restores": 0, "failures": []}
    orig_snapshot = pipeline_mod._ExecState._snapshot
    orig_restore = pipeline_mod._ExecState._restore

    def snapshot(self):
        snap = orig_snapshot(self)
        # What the pre-optimization code would have stored.
        state["snapshots"][snap] = (dict(self.regs), dict(self.ready))
        return snap

    def restore(self, snap):
        orig_restore(self, snap)
        want_regs, want_ready = state["snapshots"][snap]
        state["restores"] += 1
        if self.regs != want_regs or list(self.regs) != list(want_regs):
            state["failures"].append(("regs", self.regs, want_regs))
        if self.ready != want_ready or list(self.ready) != list(want_ready):
            state["failures"].append(("ready", self.ready, want_ready))

    monkeypatch.setattr(pipeline_mod._ExecState, "_snapshot", snapshot)
    monkeypatch.setattr(pipeline_mod._ExecState, "_restore", restore)
    return state


def run_fuzz_case(seed: int, blocks: int = 12, mitigation: str = "none"):
    """One speculation-heavy program on a fresh machine (faults become
    statuses, so every case contributes its restores to the shadow)."""
    instructions = fuzz_program(random.Random(seed), blocks)
    return execute_program(instructions, seed=seed, mitigation=mitigation)


def test_journal_restore_matches_full_copy(shadow_verifier):
    for seed in range(40):
        run_fuzz_case(seed)
    assert shadow_verifier["failures"] == []
    # The corpus must actually have exercised rollbacks, or the property
    # was vacuous.  40 speculation-heavy programs produce hundreds.
    assert shadow_verifier["restores"] > 50


@pytest.mark.parametrize("mitigation", MITIGATIONS)
def test_journal_restore_under_mitigations(shadow_verifier, mitigation):
    """Mitigations suppress (but do not eliminate) speculation; what
    rollbacks remain must still restore exactly."""
    for seed in range(12):
        run_fuzz_case(seed, mitigation=mitigation)
    assert shadow_verifier["failures"] == []


def test_journal_restore_same_snapshot_twice(shadow_verifier):
    """A replayed load can squash again: the same rollback point must
    restore correctly a second time after the journal regrew."""
    for seed in (97, 98, 99, 100, 101):
        run_fuzz_case(seed, blocks=20)
    assert shadow_verifier["failures"] == []


def test_journal_empty_outside_speculation():
    """The non-speculative fast path must not accumulate journal entries
    (that would be a leak: one tuple per register write, forever)."""
    captured = {}
    orig_execute = pipeline_mod._ExecState.execute

    def execute(self, max_steps):
        result = orig_execute(self, max_steps)
        captured["journal"] = list(self._journal)
        captured["jlive"] = self._jlive
        return result

    pipeline_mod._ExecState.execute = execute
    try:
        run_fuzz_case(7)
    finally:
        pipeline_mod._ExecState.execute = orig_execute
    assert captured["journal"] == []
    assert captured["jlive"] == 0
