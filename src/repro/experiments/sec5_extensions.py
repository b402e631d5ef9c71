"""E18/E19/E20 — further Section IV-D / V-B / V-D results.

* **covert-channel** — Vulnerability 4's constructive consequence: a
  cross-process covert channel through SSBP alone (no shared memory, no
  cache lines), with handshake cost, error rate and bandwidth.
* **stl-inplace** — the prior-art baseline the paper's out-of-place
  attack improves: in-place Spectre-STL needs the *victim* executed
  many times per byte; out-of-place needs exactly one victim run.
* **address-leak** — Section V-D's second side-channel impact: hash
  collisions among the attacker's own pages reveal relative
  physical-frame information that user space should not have.
"""

from __future__ import annotations

import random

from repro.attacks.address_leak import AddressMappingLeak
from repro.attacks.channels import StlPredictorChannel
from repro.attacks.spectre_stl import SpectreSTL
from repro.attacks.spectre_stl_inplace import SpectreSTLInPlace
from repro.cpu.machine import Machine
from repro.experiments.base import ExperimentResult

__all__ = ["run_covert_channel", "run_stl_inplace", "run_address_leak"]

#: Payload bits sent over the covert channel.
_COVERT_BITS = 64
#: Secret bytes each Spectre-STL variant leaks.
_INPLACE_SECRET_BYTES = 8
#: Attacker pages whose pairwise relative hashes are recovered.
_LEAK_PAGES = 4


def run_covert_channel(seed: int = 42) -> ExperimentResult:
    channel = StlPredictorChannel(width=1)
    (attempts,) = channel.handshake()
    rng = random.Random(seed)
    payload = [rng.randrange(2) for _ in range(_COVERT_BITS)]
    thread = channel.machine.core.thread(0)
    start = thread.cycles
    received = channel.transfer(payload)
    seconds = (thread.cycles - start) / (channel.machine.core.model.clock_ghz * 1e9)
    errors = sum(a != b for a, b in zip(payload, received))
    error_rate = errors / len(payload) if payload else 0.0
    bits_per_second = len(payload) / seconds if seconds else float("inf")
    result = ExperimentResult(
        experiment_id="covert-channel",
        title="Cross-process covert channel through SSBP alone",
        headers=["quantity", "measured"],
        paper_claim=(
            "the predictors can be used to construct covert channels "
            "for data transmission (Vulnerability 4)"
        ),
    )
    result.add_row("handshake (code-sliding attempts)", attempts)
    result.add_row("bits transmitted", len(payload))
    result.add_row("bit errors", errors)
    result.add_row("bandwidth (bit/s, simulated)", f"{bits_per_second:,.0f}")
    result.metrics["error_rate"] = error_rate
    result.metrics["bits_per_second"] = round(bits_per_second)
    result.add_note("sender and receiver share no memory mappings at all")
    return result


def run_stl_inplace(seed: int = 24) -> ExperimentResult:
    rng = random.Random(seed)
    secret = bytes(rng.randrange(256) for _ in range(_INPLACE_SECRET_BYTES))
    in_place = SpectreSTLInPlace()
    in_place_report = in_place.leak(secret)

    out_of_place = SpectreSTL()
    out_of_place.find_collision()
    start = out_of_place.victim.calls
    report = out_of_place.leak(secret)
    # One victim run per byte, plus one per retried round.
    per_byte = (out_of_place.victim.calls - start) / max(1, len(secret))
    result = ExperimentResult(
        experiment_id="stl-inplace",
        title="In-place vs out-of-place Spectre-STL",
        headers=["variant", "accuracy", "victim invocations / byte"],
        paper_claim=(
            "out-of-place training needs only ONE victim execution per "
            "leaked secret; in-place needs the victim run many times"
        ),
    )
    result.add_row(
        "in-place (prior art)",
        f"{in_place_report.accuracy:.0%}",
        f"{in_place_report.invocations_per_byte:.1f}",
    )
    result.add_row("out-of-place (the paper)", f"{report.accuracy:.0%}", f"{per_byte:.1f}")
    result.metrics["inplace_invocations_per_byte"] = round(
        in_place_report.invocations_per_byte, 1
    )
    result.metrics["inplace_accuracy"] = in_place_report.accuracy
    result.metrics["outofplace_accuracy"] = report.accuracy
    return result


def run_address_leak(seed: int = 808) -> ExperimentResult:
    leak = AddressMappingLeak(machine=Machine(seed=seed), pages=_LEAK_PAGES)
    result = ExperimentResult(
        experiment_id="address-leak",
        title="VA->PA mapping information leaked through the hash",
        headers=["page pair", "recovered H(Fi)^H(Fj)", "ground truth", "correct"],
        paper_claim=(
            "the hash function contains physical-address information and "
            "may leak the virtual-to-physical mapping (Section V-D)"
        ),
    )
    correct = 0
    recovered = leak.recover_all()
    for item in recovered:
        truth = leak.true_relative_hash(item.page_i, item.page_j)
        match = item.recovered == truth
        correct += match
        result.add_row(
            f"{item.page_i} vs {item.page_j}",
            f"{item.recovered:#05x}",
            f"{truth:#05x}",
            match,
        )
    result.metrics["pairs_recovered"] = correct
    result.metrics["pairs_total"] = len(recovered)
    result.add_note(
        "12 bits of relative physical-frame information per page pair, "
        "recovered without pagemap/PTEditor"
    )
    return result
