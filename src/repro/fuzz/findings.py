"""Schema-versioned JSONL findings artifacts.

One campaign produces one findings file: one JSON object per line, in
task order, serialized canonically (sorted keys, fixed separators) so a
campaign is byte-identical however many worker processes produced it —
the same determinism contract the experiment runner's artifacts keep.

A finding's ``kind`` is one of:

* ``architectural-divergence`` — pipeline and reference interpreter
  disagreed on registers/memory/outcome for the same program and input
  (a simulator correctness bug; the harness shrinks these);
* ``leak`` — two secret fills produced identical architectural results
  but different microarchitectural observations (cache residency, PMC
  deltas, timing) — expected under ``mitigation="none"``, a regression
  under ``ssbd``/``fence``;
* ``architectural-secret-dependence`` — an oracle program's architectural
  results depended on the secret fill (an oracle-invariant violation;
  loudly reported because it breaks the leak definition).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ArtifactError
from repro.runtime.atomic import atomic_write_text, canonical

__all__ = [
    "SCHEMA_VERSION",
    "KINDS",
    "Finding",
    "write_findings",
    "read_findings",
]

SCHEMA_VERSION = 1

KINDS = ("architectural-divergence", "leak", "architectural-secret-dependence")


@dataclass
class Finding:
    """One confirmed fuzzing result, replayable from its identity fields."""

    kind: str
    generator: str
    seed: int
    blocks: int
    cpu_model: str
    mitigation: str
    task: int                       # campaign task index (stable ordering)
    origin: str = "generated"       # "corpus" | "generated"
    label: str = ""
    detail: dict = field(default_factory=dict)
    #: Minimized reproducer: {"count": N, "instructions": [repr, ...]}.
    shrunk: dict | None = None
    #: Per-task deterministic metrics delta (``repro-fuzz --metrics``):
    #: a counters/histograms snapshot from :mod:`repro.telemetry.metrics`.
    metrics: dict | None = None
    #: Trace of the minimized repro relative to the findings file
    #: (``repro-fuzz --trace-findings``), e.g. "traces/task0007-none.trace.jsonl".
    trace: str | None = None
    schema: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ArtifactError(
                f"unknown finding kind {self.kind!r}; known: {', '.join(KINDS)}"
            )

    def to_dict(self) -> dict:
        data = {
            "schema": self.schema,
            "kind": self.kind,
            "generator": self.generator,
            "seed": self.seed,
            "blocks": self.blocks,
            "cpu_model": self.cpu_model,
            "mitigation": self.mitigation,
            "task": self.task,
            "origin": self.origin,
            "label": self.label,
            "detail": self.detail,
        }
        if self.shrunk is not None:
            data["shrunk"] = self.shrunk
        if self.metrics is not None:
            data["metrics"] = self.metrics
        if self.trace is not None:
            data["trace"] = self.trace
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "Finding":
        try:
            schema = data["schema"]
            if schema != SCHEMA_VERSION:
                raise ArtifactError(
                    f"finding schema {schema} unsupported "
                    f"(this build reads {SCHEMA_VERSION})"
                )
            return cls(
                kind=data["kind"],
                generator=data["generator"],
                seed=int(data["seed"]),
                blocks=int(data["blocks"]),
                cpu_model=str(data["cpu_model"]),
                mitigation=str(data["mitigation"]),
                task=int(data["task"]),
                origin=str(data.get("origin", "generated")),
                label=str(data.get("label", "")),
                detail=dict(data.get("detail", {})),
                shrunk=data.get("shrunk"),
                metrics=data.get("metrics"),
                trace=data.get("trace"),
                schema=schema,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ArtifactError(f"malformed finding: {exc!r}") from exc


def write_findings(path: str | Path, findings: list[Finding]) -> Path:
    """Write a findings JSONL file atomically and durably; returns the path.

    Delegates to the shared runtime helper
    (:func:`repro.runtime.atomic.atomic_write_text`) so findings carry
    the same crash-safety guarantee as every other campaign artifact.
    """
    body = "".join(canonical(finding.to_dict()) + "\n" for finding in findings)
    return atomic_write_text(path, body)


def read_findings(path: str | Path) -> list[Finding]:
    """Load a findings JSONL file; raises :class:`ArtifactError` on damage."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ArtifactError(f"no findings file at {path}") from None
    findings = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ArtifactError(f"{path}:{lineno} is not valid JSON: {exc}") from exc
        findings.append(Finding.from_dict(data))
    return findings
