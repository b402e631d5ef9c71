"""E24/E25 — the robustness curve: the attack stack under interference.

Real systems are not quiet: SMT co-runners pollute the caches and the
predictor tables, the scheduler preempts the attacker mid-measurement,
and hardened timers drift.  These drivers sweep the
:mod:`repro.interference` presets (``quiet`` → ``adversarial``) over the
two result families the paper's Section V builds on:

* **robustness-channel** — one cache-transport capacity point per
  preset, with the hardened receiver (repetition code + framing
  resynchronization).  Goodput must degrade monotonically-in-spirit as
  the presets get louder; the ``quiet`` point is byte-identical to an
  interference-free machine.
* **robustness-extraction** — the Spectre-STL extraction campaign per
  preset, twice: the hardened protocol stack (robust calibration,
  confidence-weighted reads, bounded retry, recalibration on drift)
  against the pre-hardening stack pinned via ``hardened=False``.  The
  hardened arm must stay usable (>= 80% recovery) under ``adversarial``
  while the pinned arm collapses — the measured value of every
  robustness mechanism in this PR.

Both drivers are seeded and single-threaded per point, so the whole
curve is byte-identical across reruns and ``--jobs`` settings (the
``interference-smoke`` make target enforces this).
"""

from __future__ import annotations

from repro.attacks.capacity import CapacityConfig, measure_capacity
from repro.attacks.extraction import SecretExtraction
from repro.experiments.base import ExperimentResult
from repro.interference.profile import PRESET_ORDER

__all__ = ["run_channel", "run_extraction"]

#: Fixed shape of the per-preset capacity point: the cache transport
#: (its goodput responds cleanly to preemption-inflated cycles), a
#: 3-fold repetition code and mild symbol noise so the coding layer has
#: errors to correct, and the resynchronizing receiver.
_CHANNEL_POINT = dict(
    channel="cache", width=4, repeat=3, payload_bytes=16,
    noise=0.06, resync=True,
)

#: The extraction secret: same generator as ``stl-extraction`` so the
#: quiet arm is directly comparable against that experiment's campaign.
_SECRET = bytes((index * 37 + 11) & 0xFF for index in range(16))


def run_channel(seed: int = 2601) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="robustness-channel",
        title="Covert-channel capacity per interference preset",
        headers=[
            "preset", "raw sym err", "byte err", "recovered",
            "confidence", "goodput (b/s)",
        ],
        paper_claim=(
            "the covert channels remain usable on a loaded system; "
            "throughput degrades gracefully with system noise "
            "(Section IV-D)"
        ),
    )
    for preset in PRESET_ORDER:
        report = measure_capacity(
            CapacityConfig(
                interference=None if preset == "quiet" else preset,
                seed=seed,
                **_CHANNEL_POINT,
            )
        )
        result.add_row(
            preset,
            f"{report.raw_symbol_error_rate:.3f}",
            f"{report.corrected_byte_error_rate:.3f}",
            f"{report.recovered_bytes}/{report.config.payload_bytes}",
            f"{report.confidence:.3f}",
            f"{report.goodput_bits_per_second:,.0f}",
        )
        result.metrics[f"{preset}_goodput_bps"] = round(
            report.goodput_bits_per_second
        )
        result.metrics[f"{preset}_byte_errors"] = report.corrected_byte_errors
        result.metrics[f"{preset}_confidence"] = round(report.confidence, 4)
    result.add_note(
        "quiet runs on an interference-free machine (byte-identical to "
        "the channel-capacity experiment's conditions); louder presets "
        "attach the seeded interference model to the same seeded machine"
    )
    return result


def run_extraction(seed: int = 2024) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="robustness-extraction",
        title="Spectre-STL extraction: hardened vs pinned stack per preset",
        headers=[
            "preset", "stack", "bytes recovered", "accuracy",
            "low-conf", "retries", "recal", "outcome",
        ],
        paper_claim=(
            "end-to-end extraction survives realistic system noise when "
            "the attacker calibrates and votes robustly (Section V-B)"
        ),
    )
    for preset in PRESET_ORDER:
        interference = None if preset == "quiet" else preset
        for hardened in (True, False):
            campaign = SecretExtraction(
                seed=seed,
                mitigation="none",
                interference=interference,
                hardened=hardened,
            )
            report = campaign.run(_SECRET)
            stack = "hardened" if hardened else "pinned"
            good = round(report.accuracy * len(_SECRET))
            outcome = report.failure or (
                "degraded" if report.degraded else "full recovery"
            )
            result.add_row(
                preset, stack, f"{good}/{len(_SECRET)}",
                f"{report.accuracy:.0%}", report.low_confidence_bytes,
                report.retries, report.recalibrations, outcome,
            )
            result.metrics[f"{preset}_{stack}_accuracy"] = round(
                report.accuracy, 4
            )
            if hardened:
                result.metrics[f"{preset}_low_confidence_bytes"] = (
                    report.low_confidence_bytes
                )
    result.add_note(
        "same seeded campaign per arm on a fresh machine; the pinned "
        "stack is the pre-hardening protocol (single-sample midpoint "
        "calibration, exact stickiness votes, no retry or recalibration)"
    )
    return result
