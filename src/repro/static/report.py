"""Scan artifacts: canonical JSON serialization and text rendering.

Scan findings follow the same artifact discipline as fuzz findings
(:mod:`repro.fuzz.findings`): schema-versioned JSON objects, one per
line, serialized canonically (sorted keys, fixed separators) and written
atomically by ``repro-scan scan`` (:mod:`repro.static.cli`, the one
writer) — so a scan over N programs is byte-identical however many
worker processes produced it, which is exactly what ``make scan-smoke``
diffs.  The renderers here are presentation only; nothing downstream
parses their output.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.static.gadgets import ScanReport

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.static.advisor import FencePlan
    from repro.static.crossval import CrossValReport

__all__ = [
    "SCAN_SCHEMA",
    "render_scan",
    "render_plan",
    "render_crossval",
]

SCAN_SCHEMA = 1


def render_scan(report: ScanReport, *, verbose: bool = False) -> str:
    """Human-readable summary of one scan."""
    lines = [
        f"scan of {report.name} ({report.instructions} instructions, "
        f"mitigation={report.mitigation}): "
        + ("CLEAN" if report.clean else f"{len(report.gadgets)} gadget(s)")
    ]
    if report.edges or report.windows:
        lines.append(
            f"  speculative surface: {len(report.edges)} bypass edge(s), "
            f"{len(report.windows)} branch window(s), "
            f"{len(report.sources)} secret source(s)"
        )
    for kind, count in report.kinds().items():
        lines.append(f"  {kind}: {count}")
    if verbose:
        for gadget in report.gadgets:
            lines.append(
                f"  [{gadget.node:3d}] {gadget.kind} ({gadget.channel}) "
                f"sources={list(gadget.sources)}"
                + (f" — {gadget.detail}" if gadget.detail else "")
            )
            for text in gadget.span:
                lines.append(f"        | {text}")
            for precondition in gadget.preconditions:
                lines.append(f"        needs: {precondition}")
            if gadget.killed_by:
                lines.append(f"        killed by: {', '.join(gadget.killed_by)}")
    return "\n".join(lines)


def render_plan(plan: "FencePlan") -> str:
    """Human-readable summary of a fence-advisor plan."""
    lines = [
        f"fence plan for {plan.name}: {len(plan.positions)} fence(s) "
        f"at positions {list(plan.positions)}",
        f"  before: {len(plan.before.gadgets)} gadget(s); "
        f"after: {len(plan.after.gadgets)} gadget(s)",
        "  bypass gadgets: "
        + ("eliminated (re-scan proves no spec-channel gadget remains)"
           if plan.bypass_clean else "NOT eliminated"),
    ]
    for gadget in plan.residual:
        lines.append(
            f"  residual [{gadget.node:3d}] {gadget.kind} ({gadget.channel})"
            " — fences cannot remove this; rewrite the program"
        )
    return "\n".join(lines)


def render_crossval(report: "CrossValReport") -> str:
    """Human-readable agreement matrix and verdict."""
    matrix = report.matrix()
    lines = [
        f"cross-validation over {len(report.rows)} case(s) "
        f"({report.described_sources()}):",
        "                      dynamic+   dynamic-",
        f"  static+   {matrix['both-positive']:10d} {matrix['static-only']:10d}",
        f"  static-   {matrix['dynamic-only']:10d} {matrix['both-negative']:10d}",
    ]
    if report.sound:
        lines.append(
            "  SOUND: every dynamically observed leak is statically flagged"
        )
    else:
        lines.append(
            f"  SOUNDNESS VIOLATIONS: {len(report.violations)} dynamic "
            "finding(s) the scanner missed"
        )
        for row in report.violations:
            lines.append(
                f"    case {row['case']}: {row['generator']} "
                f"seed={row['seed']} blocks={row['blocks']} "
                f"mitigation={row['mitigation']} -> {row['dynamic_kind']}"
            )
    return "\n".join(lines)
