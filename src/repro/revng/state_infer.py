"""State-machine inference and validation (paper Section III-B.2/3).

The paper builds the TABLE I model by feeding arbitrary ``a``/``n``
sequences to the hardware and reconciling observed timings with a
counter model until more than 99.8% of random sequences match.  This
module reproduces the *validation* half of that loop: it runs random
sequences on the (black-box) simulated hardware, classifies timings, and
scores agreement against the reference model — and it refines the
timing-ambiguous classes (A/B and E/F) using the tracked model state,
which is how the paper tells those types apart.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core.counters import CounterState
from repro.core.exec_types import TIMING_CLASS, ExecType, TimingClass
from repro.core.state_machine import transition
from repro.revng.sequences import StldToken
from repro.revng.stld import StldHarness
from repro.revng.timing import TimingClassifier

__all__ = ["ValidationReport", "ModelValidator", "refine_types"]


def refine_types(
    classes: list[TimingClass], inputs: list[bool], start: CounterState = CounterState()
) -> list[ExecType]:
    """Resolve the A/B and E/F ambiguity using the tracked model state.

    The model threads the counter state along the sequence; for a
    STALL_FORWARD or STALL_CACHE observation the model's ``C3`` decides
    between the S1 (A/E) and S2 (B/F) flavours, exactly as the paper
    resolves them.
    """
    refined: list[ExecType] = []
    state = start
    for timing_class, aliasing in zip(classes, inputs):
        result = transition(state, aliasing)
        members = timing_class.members
        if len(members) == 1:
            refined.append(members[0])
        elif result.exec_type in members:
            refined.append(result.exec_type)
        else:
            # Observation disagrees with the model; report the sticky
            # flavour if the model says C3 is charged.
            sticky = state.c3 > 0
            refined.append(members[1] if sticky else members[0])
        state = result.state
    return refined


@dataclass
class ValidationReport:
    """Agreement between model-predicted and observed timing classes."""

    total: int = 0
    matches: int = 0
    mismatches: list[tuple[int, TimingClass, TimingClass]] = field(
        default_factory=list
    )
    sequences: int = 0

    @property
    def agreement(self) -> float:
        return self.matches / self.total if self.total else 1.0


class ModelValidator:
    """Scores the TABLE I model against black-box timing observations."""

    def __init__(self, harness: StldHarness, classifier: TimingClassifier) -> None:
        self.harness = harness
        self.classifier = classifier

    def validate_random(
        self,
        sequences: int = 20,
        length: int = 40,
        seed: int = 0,
    ) -> ValidationReport:
        """The paper's Section III-B.3 experiment: random ``a``/``n``
        sequences, model-vs-hardware agreement (paper: > 99.8%).

        Each sequence runs on a fresh scratch variant (private ids), so
        it starts from the Initialize state like the model does.
        """
        rng = random.Random(seed)
        report = ValidationReport()
        for sequence_index in range(sequences):
            scratch = -1000 - sequence_index
            inputs = [rng.random() < 0.5 for _ in range(length)]
            tokens = [
                StldToken(aliasing, load_id=scratch, store_id=scratch)
                for aliasing in inputs
            ]
            observed = self.classifier.classify_all(
                self.harness.run_sequence(tokens)
            )
            state = CounterState()
            for position, (timing_class, aliasing) in enumerate(
                zip(observed, inputs)
            ):
                result = transition(state, aliasing)
                expected = TIMING_CLASS[result.exec_type]
                report.total += 1
                if expected is timing_class:
                    report.matches += 1
                else:
                    report.mismatches.append((position, expected, timing_class))
                state = result.state
            report.sequences += 1
        return report
