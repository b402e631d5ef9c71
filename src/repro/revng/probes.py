"""Black-box counter readout through timing (paper Sections III/IV).

These probes recover predictor state the way the paper does on silicon —
by executing stld sequences and classifying their timings — never by
peeking at the simulator's internals.

* ``read_c3``: count STALL_CACHE (type F) observations while draining a
  load-hash entry with non-aliasing pairs; the F-run length *is* C3 when
  the probing pair's own PSFP entry is fresh (C0 = 0).  Destructive.
* ``psfp_trained``: the paper's ``phi(5n)`` probe — a trained entry
  answers ``(4E, H)``, an evicted one ``(5H)``.  Destructive (drains C0).
* ``charge_c3`` / ``clear_c3``: the training sequences of Section IV-A.
"""

from __future__ import annotations

from repro.core.exec_types import TimingClass
from repro.revng.sequences import StldToken
from repro.revng.stld import StldHarness
from repro.revng.timing import TimingClassifier

__all__ = ["PredictorProber"]

#: Non-aliasing probes needed to fully drain C3 (max 32) plus slack.
_C3_DRAIN = 40


class PredictorProber:
    """Timing-only predictor state readout on a calibrated harness."""

    #: Probe store ids are allocated from a private descending range so a
    #: probing pair never aliases an experiment's PSFP entry.
    _next_probe_store = -50_000

    def __init__(self, harness: StldHarness, classifier: TimingClassifier) -> None:
        self.harness = harness
        self.classifier = classifier
        self._probe_store_for_load: dict[int, int] = {}

    def _probe_store_id(self, load_id: int) -> int:
        """A per-load-id store id with no hash-equality constraint (a
        fresh one per load id avoids the linked-hash restriction of
        double-equality placements)."""
        store_id = self._probe_store_for_load.get(load_id)
        if store_id is None:
            store_id = PredictorProber._next_probe_store
            PredictorProber._next_probe_store -= 1
            self._probe_store_for_load[load_id] = store_id
        return store_id

    # ------------------------------------------------------------------
    # SSBP (C3) probes
    # ------------------------------------------------------------------
    def read_c3(self, load_id: int = 0, probe_store_id: int | None = None) -> int:
        """Destructively read C3 of the entry selected by ``load_id``.

        Probes with a store hash whose PSFP pair is untrained, so every
        stalled observation is an F (C3-driven) and the F-run length
        equals C3.
        """
        if probe_store_id is None:
            probe_store_id = self._probe_store_id(load_id)
        token = StldToken(False, load_id=load_id, store_id=probe_store_id)
        count = 0
        for _ in range(_C3_DRAIN):
            cycles = self.harness.run_token(token)
            if self.classifier.classify(cycles) is TimingClass.STALL_CACHE:
                count += 1
            else:
                break
        return count

    def c3_is_charged(self, load_id: int = 0, probe_store_id: int | None = None) -> bool:
        """One-shot (cheap, nearly non-destructive: drains C3 by one)."""
        if probe_store_id is None:
            probe_store_id = self._probe_store_id(load_id)
        token = StldToken(False, load_id=load_id, store_id=probe_store_id)
        cycles = self.harness.run_token(token)
        return self.classifier.classify(cycles) is TimingClass.STALL_CACHE

    def charge_c3(self, load_id: int = 0, store_id: int = 0) -> None:
        """Section IV-A SSBP training: ``(7n, a, 7n, a, 7n, a)`` drives the
        entry's C4 to saturation and charges C3 to 15."""
        harness = self.harness
        harness.charge_c3(harness.variant(load_id, store_id).program)

    def clear_c3(self, load_id: int = 0, probe_store_id: int | None = None) -> None:
        """Drain C3 with non-aliasing pairs from an untrained store hash
        (the paper's ``40 n_0^{j_0}`` step)."""
        if probe_store_id is None:
            probe_store_id = self._probe_store_id(load_id)
        token = StldToken(False, load_id=load_id, store_id=probe_store_id)
        for _ in range(_C3_DRAIN):
            self.harness.run_token(token)

    # ------------------------------------------------------------------
    # PSFP (C0) probes
    # ------------------------------------------------------------------
    def psfp_trained(self, load_id: int = 0, store_id: int = 0) -> bool:
        """The paper's ``phi(5n)`` probe for a PSFP entry.

        Requires C3 of the load's SSBP entry to be clear, as in the
        paper's experiment (otherwise the F-tail masks the answer).
        Destructive: drains C0.
        """
        token = StldToken(False, load_id=load_id, store_id=store_id)
        classes = [
            self.classifier.classify(self.harness.run_token(token))
            for _ in range(5)
        ]
        return classes[0] in (TimingClass.STALL_CACHE, TimingClass.ROLLBACK_FORWARD)

    def train_psfp(self, load_id: int = 0, store_id: int = 0) -> None:
        """Section IV-A PSFP training: charge C0 and clear C3 so the
        probe sequence ``phi(5n) = (4E, H)`` answers cleanly."""
        self.charge_c3(load_id, store_id)
        # The final G left C0 = 4 and C3 = 15.  Draining C3 through an
        # *untrained* store hash leaves the trained PSFP pair intact
        # (its C0 updates are dropped for the probing pair, which has no
        # live entry), exactly like the paper's ``40 n_0^{j_0}`` step.
        self.clear_c3(load_id)
