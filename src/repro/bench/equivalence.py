"""The behaviour-preservation gate for performance work on the core.

Optimizing the interpreter is only allowed when it is *provably* a
no-op architecturally.  This module computes one SHA-256 digest over
every observable output the repo already pins:

* **experiments** — :func:`repro.experiments.runner.run_experiment`
  result dicts (tables, metrics, event classifications) at their
  catalog default seeds;
* **corpus** — the pinned regression corpus
  (:data:`repro.fuzz.corpus.REGRESSION_ENTRIES`) dual-executed under
  every mitigation, digesting registers, memory images, run statistics
  (cycles, events, rollbacks, retired) and any divergence;
* **traces** — the ``make trace-smoke`` golden targets re-recorded and
  hashed byte-for-byte (telemetry traces expose per-cycle pipeline
  internals, so they catch timing changes the architectural outputs
  would forgive).

The committed golden files record the digests produced by the
unoptimized code, one per tier.  Any mismatch means an optimization
changed behaviour and must be fixed — there is deliberately no
tolerance knob here.

:func:`check_golden` also holds the experiment results it just digested
to the paper's claims (:data:`PAPER_CLAIMS`: PSFP evicts abruptly at 12
entries, SSBD stops both attacks while PSFD does not, ...) and reports
each violated claim beside the digest mismatches.  The claims never
enter the digested payload, so the golden files do not depend on them.

Two tiers keep the gate usable:

* ``fast`` — the cheap experiments + full corpus + traces, ~10 s; its
  golden is ``benchmarks/GOLDEN_fast.json`` and
  ``tests/bench/test_equivalence.py`` checks it (and the fast
  experiments' paper claims) in the test suite;
* ``full`` — every experiment, several minutes; its golden is
  ``benchmarks/GOLDEN.json``, checked with every paper claim by
  ``make equivalence-check`` before committing core changes.
"""

from __future__ import annotations

import hashlib
import tempfile
from pathlib import Path
from typing import Any, Callable

from repro.experiments.cache import content_key
from repro.runtime.atomic import atomic_write_json

__all__ = [
    "EQUIV_SCHEMA",
    "FAST_EXPERIMENTS",
    "PAPER_CLAIMS",
    "TRACE_TARGETS",
    "check_claims",
    "compute_digest",
    "check_golden",
    "write_golden",
]

EQUIV_SCHEMA = "repro-equivalence/v1"

#: Experiments cheap enough for the in-suite gate (each < ~2.5 s).
FAST_EXPERIMENTS = (
    "fig2",
    "table1",
    "sec3-selection",
    "fig4",
    "table2",
    "sec4-isolation",
    "sec4-transient",
    "fig12",
    "table4",
    "covert-channel",
    "address-leak",
)

#: The golden-trace targets (same set ``make trace-smoke`` pins).
TRACE_TARGETS = ("stl", "case:fuzz-v1:5:12", "sec4-transient")


#: experiment -> (claim, predicate over its result dict).  Each claim is
#: what the paper reports for that artifact, at the experiment's catalog
#: default seed and size; :func:`check_claims` evaluates them.
PAPER_CLAIMS: dict[str, tuple[str, Callable[[dict[str, Any]], bool]]] = {
    "fig2": (
        "rollbacks are the slowest timing level; >= 99% of types match the model",
        lambda r: r["metrics"]["rollback_slower_than_everything"] == "True"
        and r["metrics"]["type_agreement_with_model"] >= 0.99,
    ),
    "table1": (
        "the state machine agrees with the simulation on > 99.8% of inputs",
        lambda r: r["metrics"]["agreement"] > 0.998,
    ),
    "sec3-selection": (
        "the predictors are selected by IPA",
        lambda r: r["metrics"]["conclusion_ipa_selected"] == "True",
    ),
    "fig4": (
        "colliding addresses fold at stride 12 with a fully consistent profile",
        lambda r: r["metrics"]["stride"] == 12 and r["metrics"]["profile_consistency"] == 1.0,
    ),
    "table2": (
        "every counter-organization probe matches TABLE II",
        lambda r: all(row[-1] for row in r["rows"]),
    ),
    "fig5": (
        "PSFP evicts abruptly at 12; SSBP evicts > 45% at 16 and > 78% at 32",
        lambda r: r["metrics"]["psfp_threshold"] == 12
        and r["metrics"]["ssbp_rate_at_16"] > 0.45
        and r["metrics"]["ssbp_rate_at_32"] > 0.78,
    ),
    "sec4-isolation": (
        "every isolation-matrix cell matches Section IV-A",
        lambda r: all(row[-1] for row in r["rows"]),
    ),
    "fig7": (
        "SSBP collisions take 500-4096 attempts; PSFP collides iff distances are equal",
        lambda r: 500 < r["metrics"]["ssbp_mean_attempts"] <= 4096
        and r["metrics"]["psfp_equal_distance_rate"] > 0.9
        and r["metrics"]["psfp_unequal_distance_rate"]
        < r["metrics"]["psfp_equal_distance_rate"],
    ),
    "sec4-transient": (
        "Vulnerabilities 3 and 4 are confirmed",
        lambda r: r["metrics"]["vulnerability_3_confirmed"] == "True"
        and r["metrics"]["vulnerability_4_confirmed"] == "True",
    ),
    "spectre-stl": (
        "out-of-place Spectre-STL leaks at >= 95% accuracy",
        lambda r: r["metrics"]["accuracy"] >= 0.95 and r["metrics"]["bytes_per_second"] > 0,
    ),
    "spectre-ctl": (
        "cross-process Spectre-CTL leaks at >= 83% accuracy",
        lambda r: r["metrics"]["accuracy"] >= 0.83 and r["metrics"]["bytes_per_second"] > 0,
    ),
    "spectre-ctl-web": (
        "browser-model Spectre-CTL leaks, degraded, at >= 30% accuracy",
        lambda r: 0.3 <= r["metrics"]["accuracy"] <= 1.0
        and r["metrics"]["bytes_per_second"] > 0,
    ),
    "fig11": (
        "the SVM tells the 6 CNN models apart at >= 75% accuracy",
        lambda r: r["metrics"]["svm_accuracy"] >= 0.75 and r["metrics"]["models"] == 6,
    ),
    "fig12": (
        "SSBD costs perlbench and exchange2 more than 20%",
        lambda r: {"perlbench", "exchange2"}
        <= set(r["metrics"]["benchmarks_over_20pct"].split(", ")),
    ),
    "table3": (
        "the attack works on all 4 Zen 3 platforms",
        lambda r: r["metrics"]["platforms"] == 4 and all(row[-1] == "ok" for row in r["rows"]),
    ),
    "table4": (
        "an AMD collision takes > 100 attempts on average",
        lambda r: r["metrics"]["amd_mean_collision_attempts"] > 100,
    ),
    "sec6-mitigations": (
        "SSBD stops Spectre-STL; PSFD does not stop Spectre-CTL",
        lambda r: r["metrics"]["SSBD:stl"] == "False" and r["metrics"]["PSFD:ctl"] == "True",
    ),
    "covert-channel": (
        "the SSBP covert channel transmits without bit errors",
        lambda r: r["metrics"]["error_rate"] == 0.0 and r["metrics"]["bits_per_second"] > 0,
    ),
    "stl-inplace": (
        "in-place Spectre-STL needs > 1.5 victim runs per byte; out-of-place >= 75% accurate",
        lambda r: r["metrics"]["inplace_invocations_per_byte"] > 1.5
        and r["metrics"]["outofplace_accuracy"] >= 0.75,
    ),
    "address-leak": (
        "every VA->PA frame-hash pair is recovered",
        lambda r: r["metrics"]["pairs_recovered"] == r["metrics"]["pairs_total"],
    ),
}


def check_claims(results: dict[str, dict[str, Any]]) -> list[str]:
    """The :data:`PAPER_CLAIMS` that ``results`` (name -> result dict) violate."""
    return [
        f"{name}: paper claim failed: {claim}"
        for name, (claim, holds) in PAPER_CLAIMS.items()
        if name in results and not holds(results[name])
    ]


def _report_payload(report) -> dict[str, Any]:
    """Everything observable about one dual execution, JSON-safe."""
    pipe, ref = report.pipeline, report.reference
    return {
        "mitigation": report.mitigation,
        "model": report.model_name,
        "pipeline": {
            "status": pipe.status,
            "regs": dict(pipe.regs),
            "memory_sha256": hashlib.sha256(pipe.memory).hexdigest(),
            "result": pipe.result.to_dict() if pipe.result is not None else None,
        },
        "reference": {
            "status": ref.status,
            "regs": dict(ref.regs),
            "memory_sha256": hashlib.sha256(ref.memory).hexdigest(),
        },
        "divergence": None if report.divergence is None else report.divergence.describe(),
    }


def _corpus_digest() -> str:
    from repro.fuzz.corpus import REGRESSION_ENTRIES
    from repro.fuzz.harness import MITIGATIONS, check_entry

    payload: dict[str, Any] = {}
    for entry in REGRESSION_ENTRIES:
        for mitigation in MITIGATIONS:
            key = f"{entry.generator}:{entry.seed}:{entry.blocks}:{mitigation}"
            payload[key] = _report_payload(check_entry(entry, mitigation=mitigation))
    return content_key(payload)


def _traces_digest() -> str:
    from repro.telemetry.record import record_target, trace_path

    digests: dict[str, str] = {}
    with tempfile.TemporaryDirectory(prefix="repro-equiv-") as tmp:
        for target in TRACE_TARGETS:
            record_target(target, tmp)
            path = trace_path(tmp, target)
            digests[target] = hashlib.sha256(path.read_bytes()).hexdigest()
    return content_key(digests)


def _run_tier(tier: str) -> tuple[dict[str, Any], dict[str, dict[str, Any]]]:
    """The golden payload for ``tier`` and the experiment results behind it."""
    from repro.experiments.runner import EXPERIMENTS, run_experiment

    if tier == "fast":
        names = FAST_EXPERIMENTS
    elif tier == "full":
        names = tuple(EXPERIMENTS)
    else:
        raise ValueError(f"unknown tier {tier!r}; use 'fast' or 'full'")
    results = {name: run_experiment(name).to_dict() for name in names}
    sections = {
        "experiments": content_key(results),
        "corpus": _corpus_digest(),
        "traces": _traces_digest(),
    }
    payload = {
        "schema": EQUIV_SCHEMA,
        "tier": tier,
        "experiments": list(names),
        "sections": sections,
        "digest": content_key(sections),
    }
    return payload, results


def compute_digest(tier: str = "fast") -> dict[str, Any]:
    """Recompute the gate's digests.  ``tier``: ``fast`` or ``full``."""
    return _run_tier(tier)[0]


def write_golden(path: Path | str, tier: str = "fast") -> dict[str, Any]:
    payload = compute_digest(tier)
    atomic_write_json(Path(path), payload)
    return payload


def check_golden(path: Path | str) -> list[str]:
    """Recompute against a golden file; returns mismatch descriptions.

    Digest mismatches come first, then the paper claims the tier's
    experiment results violate.
    """
    import json

    golden = json.loads(Path(path).read_text())
    if golden.get("schema") != EQUIV_SCHEMA:
        return [f"golden file schema {golden.get('schema')!r} != {EQUIV_SCHEMA!r}"]
    current, results = _run_tier(golden.get("tier", "fast"))
    problems = []
    for section, expected in golden["sections"].items():
        actual = current["sections"].get(section)
        if actual != expected:
            problems.append(
                f"{section}: digest changed ({expected[:12]}.. -> {str(actual)[:12]}..)"
            )
    return problems + check_claims(results)


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.bench.equivalence`` — write or check the gate."""
    import argparse
    import sys

    parser = argparse.ArgumentParser(
        prog="repro.bench.equivalence",
        description="Behaviour-preservation gate for core optimizations.",
    )
    parser.add_argument("--golden", default="benchmarks/GOLDEN.json",
                        help="golden digest file (default benchmarks/GOLDEN.json)")
    parser.add_argument("--write", action="store_true",
                        help="record the current behaviour as golden")
    parser.add_argument("--tier", choices=("fast", "full"), default="fast")
    args = parser.parse_args(argv)
    if args.write:
        payload = write_golden(args.golden, args.tier)
        print(f"wrote {args.golden} (tier={args.tier}, digest {payload['digest'][:16]}..)")
        return 0
    problems = check_golden(args.golden)
    if problems:
        for problem in problems:
            print(f"equivalence MISMATCH: {problem}", file=sys.stderr)
        return 1
    print("equivalence ok: behaviour digests match the golden file; paper claims hold")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
