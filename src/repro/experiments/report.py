"""Regenerate the measured-value tables from campaign artifacts.

``python -m repro.experiments.report --json results/ --write EXPERIMENTS.md``
rewrites the generated measured-values table in EXPERIMENTS.md (the
block between the BEGIN/END markers) from the JSON artifacts a campaign
writes with ``repro-experiments --json DIR``, so the published numbers
are never hand-copied.  Without ``--write`` it prints the table.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.experiments.artifacts import load_artifacts
from repro.experiments.base import ExperimentResult

__all__ = ["render_measured_table", "update_markdown", "main"]

BEGIN_MARK = "<!-- BEGIN GENERATED MEASURED VALUES (repro.experiments.report) -->"
END_MARK = "<!-- END GENERATED MEASURED VALUES -->"


def _format_metric(value: object) -> str:
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def render_measured_table(results: dict[str, ExperimentResult]) -> str:
    """One markdown table row per artifact: id, seed, wall time, metrics."""
    lines = [
        "| Id | Seed | Wall time | Measured metrics |",
        "|---|---|---|---|",
    ]
    for name, result in results.items():
        metrics = "; ".join(
            f"{key}={_format_metric(val)}" for key, val in sorted(result.metrics.items())
        ) or "—"
        wall = f"{result.wall_time_s:.1f}s" if result.wall_time_s is not None else "—"
        seed = "—" if result.seed is None else str(result.seed)
        lines.append(f"| `{name}` | {seed} | {wall} | {metrics} |")
    return "\n".join(lines)


def update_markdown(path: str | Path, results: dict[str, ExperimentResult]) -> bool:
    """Replace the generated block in ``path``; returns True if changed.

    The file must already contain the BEGIN/END markers; everything
    between them is owned by this tool.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    if BEGIN_MARK not in text or END_MARK not in text:
        raise SystemExit(
            f"{path} has no generated-values markers; add\n"
            f"{BEGIN_MARK}\n{END_MARK}\nwhere the table belongs"
        )
    head, rest = text.split(BEGIN_MARK, 1)
    _, tail = rest.split(END_MARK, 1)
    block = f"{BEGIN_MARK}\n{render_measured_table(results)}\n{END_MARK}"
    updated = head + block + tail
    if updated == text:
        return False
    path.write_text(updated, encoding="utf-8")
    return True


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.report",
        description="Regenerate measured-value tables from campaign artifacts.",
    )
    parser.add_argument("--json", metavar="DIR", required=True,
                        help="artifact directory to read")
    parser.add_argument(
        "--write", metavar="FILE", default=None,
        help="markdown file whose generated block to update (e.g. EXPERIMENTS.md)",
    )
    args = parser.parse_args(argv)

    results = load_artifacts(args.json)
    if not results:
        print(f"no artifacts in {args.json}", file=sys.stderr)
        return 1
    if args.write:
        changed = update_markdown(args.write, results)
        print(f"{args.write}: {'updated' if changed else 'already current'} "
              f"({len(results)} experiments)")
    else:
        print(render_measured_table(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
