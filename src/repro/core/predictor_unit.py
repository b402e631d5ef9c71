"""The combined speculative memory access predictor unit (paper Fig 6).

One :class:`PredictorUnit` is the per-hardware-thread machinery that the
paper reverse engineers: a PSFP (selected by both hashed IPAs) and an SSBP
(selected by the hashed load IPA) whose five counters jointly drive the
TABLE I state machine.

The unit is deliberately unaware of virtual memory, processes or the
pipeline: it consumes pre-hashed IPAs and aliasing ground truth and
produces predictions, execution types and counter updates.  Higher layers
(:mod:`repro.cpu`, :mod:`repro.osm`) decide *when* to consult it, when to
flush what (context switch: PSFP only; suspend: both) and how updates made
inside a transient window persist (they always do — Vulnerability 4).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.core.config import CpuModel, default_model
from repro.core.counters import CounterState
from repro.core.exec_types import ExecType
from repro.core.psfp import Psfp
from repro.core.spec_ctrl import SpecCtrl
from repro.core.ssbp import Ssbp
from repro.core.state_machine import (
    Prediction,
    StateName,
    classify_state,
    predict as predict_state,
    transition,
)

__all__ = ["AccessResult", "PredictorUnit"]


@dataclass(frozen=True)
class AccessResult:
    """Everything the pipeline needs to know about one store-load pair."""

    exec_type: ExecType
    prediction: Prediction
    state_name: StateName
    before: CounterState
    after: CounterState


_SSBD_BLOCK = Prediction(aliasing=True, psf_forward=False, sticky=False)

#: The outcome of each ``(counters, aliasing, ssbd)`` triple; its SSBD-off
#: prediction is also what :meth:`PredictorUnit.predict` returns.  It is
#: pure in its key, the clamped counter product bounds it, and plain tuple
#: keys skip hashing a CounterState through its Python-level ``__hash__``.
_OUTCOMES: dict[tuple[tuple[int, int, int, int, int], bool, bool], AccessResult] = {}


def _outcome(
    counters: tuple[int, int, int, int, int], aliasing: bool, ssbd: bool
) -> AccessResult:
    """The outcome of one pair, memoized: prediction, TABLE I transition
    and the resulting :class:`AccessResult` depend only on the incoming
    counters, the ground truth and SSBD.  :meth:`PredictorUnit.access`
    applies the table writes and bookkeeping around it."""
    key = (counters, aliasing, ssbd)
    outcome = _OUTCOMES.get(key)
    if outcome is None:
        before = CounterState(*counters)
        if ssbd:
            # Loads serialize behind stores; the unit is pinned in the
            # Block state and learns nothing (Section VI-A).
            exec_type = ExecType.A if aliasing else ExecType.E
            outcome = AccessResult(
                exec_type, _SSBD_BLOCK, StateName.BLOCK, before, before
            )
        else:
            result = transition(before, aliasing)
            outcome = AccessResult(
                result.exec_type, predict_state(before), result.state_name,
                before, result.state,
            )
        _OUTCOMES[key] = outcome
    return outcome


class PredictorUnit:
    """PSFP + SSBP + TABLE I transition logic for one hardware thread."""

    def __init__(
        self,
        model: CpuModel | None = None,
        spec_ctrl: SpecCtrl | None = None,
        hash_salt: int = 0,
    ) -> None:
        self.model = model or default_model()
        self.spec_ctrl = spec_ctrl or SpecCtrl()
        #: Salt for the randomized-selection mitigation; callers that hash
        #: IPAs themselves must use the same salt (see repro.mitigations).
        self.hash_salt = hash_salt
        self.psfp = Psfp(self.model.psfp_entries)
        self.ssbp = Ssbp(self.model.ssbp_sets, self.model.ssbp_ways)
        self.exec_type_counts: Counter[ExecType] = Counter()
        self.context_switches = 0
        self.suspends = 0
        #: Telemetry attachment (repro.telemetry): the pipeline installs a
        #: tracer here when recording and refreshes ``trace_cycle`` before
        #: each access so transition events carry pipeline time.  ``None``
        #: means disabled — access() pays one identity test, nothing more.
        self.trace = None
        self.trace_thread = 0
        self.trace_cycle = 0

    # ------------------------------------------------------------------
    # State assembly and prediction
    # ------------------------------------------------------------------
    def counters(self, store_hash: int, load_hash: int) -> tuple[int, int, int, int, int]:
        """The five counters of one (store, load) pair, refreshing the
        recency of the entries read.

        On a core without PSF hardware (Zen 2) there is no PSFP: the
        pair counters read as zero and are never written, leaving only
        the SSBP dynamics (Initialize / Load-From-Cache / S2 states).
        """
        if self.model.psf_supported:
            return self.psfp.counters(store_hash, load_hash) + self.ssbp.counters(load_hash)
        return (0, 0, 0) + self.ssbp.counters(load_hash)

    def predict(self, store_hash: int, load_hash: int) -> Prediction:
        """What the unit will do for the next pair at these IPAs."""
        if self.spec_ctrl.ssbd:
            return _SSBD_BLOCK
        return _outcome(self.counters(store_hash, load_hash), False, False).prediction

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def access(
        self, store_hash: int, load_hash: int, aliasing: bool
    ) -> AccessResult:
        """Execute one store-load pair: predict, classify, update counters.

        This is called for architectural *and* transient executions alike;
        predictor updates are never rolled back (Vulnerability 4).
        """
        ssbd = self.spec_ctrl.ssbd
        outcome = _outcome(self.counters(store_hash, load_hash), aliasing, ssbd)
        if not ssbd:
            after = outcome.after
            # Entries are allocated only by a mispredicted bypass (type G);
            # other events update live entries but never claim a new slot.
            allocate = outcome.exec_type is ExecType.G
            if self.model.psf_supported:
                self.psfp.update(
                    store_hash, load_hash, after.c0, after.c1, after.c2,
                    allocate=allocate,
                )
            self.ssbp.update(load_hash, after.c3, after.c4, allocate=allocate)
        self.exec_type_counts[outcome.exec_type] += 1
        if self.trace is not None:
            self._emit_transition(
                store_hash, load_hash, aliasing, outcome.exec_type,
                classify_state(outcome.before), outcome.state_name,
                outcome.before, outcome.after,
            )
        return outcome

    def _emit_transition(
        self,
        store_hash: int,
        load_hash: int,
        aliasing: bool,
        exec_type: ExecType,
        state_before: StateName,
        state_after: StateName,
        before: CounterState,
        after: CounterState,
    ) -> None:
        """Emit one TABLE I edge as observed live (cold path)."""
        self.trace.emit(
            "predictor-transition",
            cycle=self.trace_cycle,
            thread=self.trace_thread,
            store_hash=store_hash,
            load_hash=load_hash,
            aliasing=aliasing,
            exec_type=exec_type.name,
            state_before=state_before.value,
            state_after=state_after.value,
            counters_before=list(before.as_tuple()),
            counters_after=list(after.as_tuple()),
        )

    # ------------------------------------------------------------------
    # Flush semantics (Section IV-A)
    # ------------------------------------------------------------------
    def on_context_switch(self, flush_ssbp: bool = False) -> None:
        """A context switch flushes PSFP but (vulnerably) not SSBP.

        ``flush_ssbp=True`` models the mitigation of Section VI-B.
        """
        self.context_switches += 1
        self.psfp.flush()
        if flush_ssbp:
            self.ssbp.flush()

    def on_suspend(self) -> None:
        """Process suspension (``sleep``) flushes both predictors."""
        self.suspends += 1
        self.psfp.flush()
        self.ssbp.flush()

    def __repr__(self) -> str:
        return (
            f"PredictorUnit(model={self.model.name!r}, psfp={self.psfp.occupancy}"
            f"/{self.psfp.capacity}, ssbp={self.ssbp.occupancy}/{self.ssbp.capacity}, "
            f"ssbd={self.spec_ctrl.ssbd})"
        )
