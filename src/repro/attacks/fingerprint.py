"""SSBP process fingerprinting (paper Section V-D, Fig 11).

Because SSBP is not flushed on context switches, the C3 residue a victim
leaves behind encodes its control flow.  The paper's attacker:

1. shares a core with the victim, sleeping to yield the CPU;
2. each round, traverses SSBP entries by code sliding and reads every
   C3 value (the F-run length of non-aliasing probes);
3. aggregates the relative frequency of each C3 value in 1..35 into a
   fingerprint vector;
4. classifies vectors with an SVM — >95.5% accuracy over six CNN models.

Our attacker slides over one page, one probe per byte offset, which
reaches every one of the 4096 hash values.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.stats import frequency_vector
from repro.attacks.runtime import AttackerStld
from repro.cpu.isa import Program
from repro.cpu.machine import Machine
from repro.mem.physical import PAGE_SIZE
from repro.revng.stld import build_stld
from repro.workloads.cnn import CnnModel, CnnVictim

__all__ = ["SsbpFingerprinter", "collect_dataset"]

#: Pages the attacker's probe stld slides over.
_SLIDE_PAGES = 4


class SsbpFingerprinter:
    """Collects SSBP C3-distribution fingerprints of a co-located victim."""

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        self.process = machine.kernel.create_process("fingerprinter")
        # A short stld keeps the 4096-probe walk affordable; its timing
        # classes are narrower but still separable under the RDPRU noise.
        self.attacker = AttackerStld(
            machine,
            self.process,
            slide_pages=_SLIDE_PAGES,
            template=build_stld(agen_imuls=6, consumer_imuls=4),
        )
        #: One probe per byte offset of a page: the load IPA's page
        #: offset enters the hash linearly, so a full page of sliding
        #: visits every one of the 4096 SSBP selector values (the
        #: paper's "traverse the entire space of SSBP entries").
        self.probes: list[Program] = [
            self.attacker.place_at(self.attacker.slide_base + offset)
            for offset in range(PAGE_SIZE)
        ]

    def probe_round(self) -> list[int]:
        """Read C3 of every sampled entry (destructive, like the paper)."""
        return [self.attacker.drain_c3(probe) for probe in self.probes]

    def fingerprint(self, victim: CnnVictim, rounds: int = 12) -> list[float]:
        """Interleave victim inference with probe rounds; aggregate the
        C3-value frequency vector (values 1..35)."""
        values: list[int] = []
        for _ in range(rounds):
            victim.inference_pass()
            # The paper's probe yields the CPU with sleep(); scheduling
            # back and forth happens implicitly in probe_round's runs.
            values.extend(self.probe_round())
        return frequency_vector(values)


def collect_dataset(
    models: dict[str, CnnModel],
    samples_per_model: int = 6,
    rounds: int = 8,
    seed: int = 7,
) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Fingerprints for each model: (features, labels, label_names).

    Every sample uses a fresh machine (fresh physical layout), so the
    classifier must rely on the *distributional* signature, not on
    incidental hash placement.
    """
    names = list(models)
    features: list[list[float]] = []
    labels: list[int] = []
    for label, name in enumerate(names):
        for sample in range(samples_per_model):
            machine = Machine(seed=seed + 1009 * label + sample)
            victim = CnnVictim(machine, models[name])
            fingerprinter = SsbpFingerprinter(machine)
            vector = fingerprinter.fingerprint(victim, rounds=rounds)
            features.append(vector)
            labels.append(label)
    return np.array(features), np.array(labels), names
