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

Two tiers keep the gate usable:

* ``fast`` — the cheap experiments + full corpus + traces, ~10 s; its
  golden is ``benchmarks/GOLDEN_fast.json`` and
  ``tests/bench/test_equivalence.py`` checks it in the test suite;
* ``full`` — every experiment, several minutes; its golden is
  ``benchmarks/GOLDEN.json``, checked by ``make equivalence-check``
  before committing core changes.
"""

from __future__ import annotations

import hashlib
import tempfile
from pathlib import Path
from typing import Any

from repro.experiments.cache import content_key
from repro.runtime.atomic import atomic_write_json

__all__ = [
    "EQUIV_SCHEMA",
    "FAST_EXPERIMENTS",
    "TRACE_TARGETS",
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
TRACE_TARGETS = ("stl", "case:fuzz-v1:5:12", "fig4")


def _experiments_digest(names: tuple[str, ...]) -> str:
    from repro.experiments.runner import run_experiment

    return content_key({name: run_experiment(name).to_dict() for name in names})


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


def compute_digest(tier: str = "fast") -> dict[str, Any]:
    """Recompute the gate's digests.  ``tier``: ``fast`` or ``full``."""
    if tier == "fast":
        names = FAST_EXPERIMENTS
    elif tier == "full":
        from repro.experiments.runner import EXPERIMENTS

        names = tuple(EXPERIMENTS)
    else:
        raise ValueError(f"unknown tier {tier!r}; use 'fast' or 'full'")
    sections = {
        "experiments": _experiments_digest(names),
        "corpus": _corpus_digest(),
        "traces": _traces_digest(),
    }
    return {
        "schema": EQUIV_SCHEMA,
        "tier": tier,
        "experiments": list(names),
        "sections": sections,
        "digest": content_key(sections),
    }


def write_golden(path: Path | str, tier: str = "fast") -> dict[str, Any]:
    payload = compute_digest(tier)
    atomic_write_json(Path(path), payload)
    return payload


def check_golden(path: Path | str) -> list[str]:
    """Recompute against a golden file; returns mismatch descriptions."""
    import json

    golden = json.loads(Path(path).read_text())
    if golden.get("schema") != EQUIV_SCHEMA:
        return [f"golden file schema {golden.get('schema')!r} != {EQUIV_SCHEMA!r}"]
    current = compute_digest(golden.get("tier", "fast"))
    problems = []
    for section, expected in golden["sections"].items():
        actual = current["sections"].get(section)
        if actual != expected:
            problems.append(
                f"{section}: digest changed ({expected[:12]}.. -> {str(actual)[:12]}..)"
            )
    return problems


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
    print("equivalence ok: behaviour digests match the golden file")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
