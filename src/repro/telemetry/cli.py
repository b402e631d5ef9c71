"""``repro-trace``: record, summarize, diff, and export pipeline traces.

The observability front end (docs/observability.md):

* ``record`` — run catalog experiments, fuzz cases or the ``stl`` demo
  with tracing on, writing ``<target>.trace.jsonl`` files;
* ``summarize`` — event rollups (kinds, exec types, TABLE I edges);
* ``diff`` — first divergence between two traces (exit 1 when found,
  so shell gates can assert sameness);
* ``export`` — Chrome trace-event/Perfetto JSON or a plain timeline.

Exit codes follow the shared contract (see ``--help``); ``diff`` maps
"traces differ" onto code 1, the same "completed but not clean" slot
the campaign CLIs use for findings.
"""

from __future__ import annotations

import json
import sys

from ..runtime import exitcodes
from ..runtime.atomic import atomic_write_text
from ..runtime.cliutil import build_parser, console_main, print_progress
from .diff import first_divergence
from .export import summarize_events, to_chrome_trace, to_timeline
from .record import record_many
from .sinks import read_trace

__all__ = ["main"]

_EPILOG = """\
targets for record:
  <experiment>                any name from `repro-experiments --list`
  case:<gen>:<seed>:<blocks>  a generated fuzz program (pipeline executor)
  stl                         the Spectre-STL gadget demo (mistrain + attack);
                              record it with --mitigation none and ssbd, then
                              diff the two traces"""


@console_main("repro-trace", usage=(OSError, ValueError))
def main(argv: list[str] | None = None) -> int:
    parser = build_parser(
        "repro-trace",
        "Record and inspect microarchitectural traces of the simulator.",
        epilog=_EPILOG,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rec = sub.add_parser("record", help="run targets with tracing on")
    rec.add_argument("targets", nargs="+", help="targets to record (see epilog)")
    rec.add_argument("--out", required=True, metavar="DIR",
                     help="directory receiving <target>.trace.jsonl files")
    rec.add_argument("--seed", type=int, default=None,
                     help="override the target's default seed")
    rec.add_argument("--mitigation", default="none",
                     help="mitigation for case:/stl targets (none|ssbd|fence)")
    rec.add_argument("--model", default=None,
                     help="CPU model for case: targets (TABLE III platform name)")
    rec.add_argument("--jobs", "-j", type=int, default=1, metavar="N",
                     help="record targets in parallel (default 1)")

    summ = sub.add_parser("summarize", help="event rollup of one trace")
    summ.add_argument("trace", help="a .trace.jsonl file")
    summ.add_argument("--json", action="store_true", help="machine-readable output")

    dif = sub.add_parser("diff", help="first divergence between two traces")
    dif.add_argument("left")
    dif.add_argument("right")
    dif.add_argument("--ignore", default="", metavar="FIELDS",
                     help="comma-separated payload fields to ignore (e.g. cycle)")
    dif.add_argument("--context", type=int, default=3,
                     help="shared-prefix events to show before the divergence")

    exp = sub.add_parser("export", help="convert a trace for visualization")
    exp.add_argument("trace", help="a .trace.jsonl file")
    exp.add_argument("--format", choices=("chrome", "timeline"), default="chrome",
                     help="chrome = Perfetto/chrome://tracing JSON; "
                          "timeline = aligned plain text")
    exp.add_argument("--out", default=None, metavar="PATH",
                     help="output file (default stdout)")

    args = parser.parse_args(argv)
    if args.command == "record":
        return _record(args)
    if args.command == "summarize":
        return _summarize(args)
    if args.command == "diff":
        return _diff(args)
    return _export(args)


def _record(args) -> int:
    rows = record_many(
        args.targets,
        args.out,
        seed=args.seed,
        mitigation=args.mitigation,
        model=args.model,
        jobs=max(1, args.jobs),
        progress=print_progress,
    )
    for row in rows:
        print(f"{row['target']}: {row['events']} events -> {row['path']}")
    return exitcodes.EXIT_OK


def _summarize(args) -> int:
    header, events = read_trace(args.trace)
    summary = summarize_events(events)
    if args.json:
        print(json.dumps({"header": header, "summary": summary}, indent=2, sort_keys=True))
        return exitcodes.EXIT_OK
    context = ", ".join(
        f"{k}={v}" for k, v in sorted(header.items()) if k not in ("kind", "schema")
    )
    print(f"trace: {args.trace} ({context})")
    print(f"events: {summary['events']} (last cycle {summary['last_cycle']})")
    for section in ("kinds", "exec_types", "squashes", "table1_edges"):
        table = summary[section]
        if not table:
            continue
        print(f"{section.replace('_', ' ')}:")
        for key, count in table.items():
            print(f"  {count:>7}  {key}")
    return exitcodes.EXIT_OK


def _diff(args) -> int:
    _, left = read_trace(args.left)
    _, right = read_trace(args.right)
    ignore = tuple(f for f in args.ignore.split(",") if f)
    result = first_divergence(left, right, ignore=ignore, context=max(0, args.context))
    print(result.describe())
    return exitcodes.EXIT_OK if result.identical else exitcodes.EXIT_FAILURES


def _export(args) -> int:
    header, events = read_trace(args.trace)
    if args.format == "chrome":
        rendered = json.dumps(to_chrome_trace(header, events), indent=2) + "\n"
    else:
        rendered = to_timeline(header, events)
    if args.out is None:
        sys.stdout.write(rendered)
    else:
        atomic_write_text(args.out, rendered)
        print(f"wrote {args.out}")
    return exitcodes.EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
