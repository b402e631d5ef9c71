"""``repro-bench``: run, record and compare performance benchmarks.

The performance front end (docs/performance.md):

* ``run`` — execute the curated microbenchmark set (or a subset),
  print a throughput table, and optionally write a schema-versioned
  ``BENCH_<label>.json`` artifact;
* ``compare`` — diff two artifacts with the noise-aware regression
  rule (exit 1 on regression, so ``make bench-smoke`` can gate CI);
* ``list`` — show the registered benchmarks and what they measure.

Exit codes follow the shared contract (see ``--help``); ``compare``
maps "regression found" onto code 1, the same "completed but not
clean" slot the fuzz and trace CLIs use.
"""

from __future__ import annotations

import sys
from pathlib import Path

from ..errors import ReproError
from ..runtime import exitcodes
from ..runtime.cliutil import build_parser
from .artifact import (
    DEFAULT_THRESHOLD,
    compare_artifacts,
    load_artifact,
    make_artifact,
    write_artifact,
)
from .micro import BENCHMARKS, QUICK_SCALE, profile_benchmark, run_benchmarks

__all__ = ["main"]

_EPILOG = """\
examples:
  repro-bench run --quick                      smoke run, table only
  repro-bench run --label seed --out BENCH_seed.json
  repro-bench run pipeline.steps hashfn.ipa_hash
  repro-bench compare BENCH_seed.json BENCH_now.json --threshold 0.25"""


def main(argv: list[str] | None = None) -> int:
    parser = build_parser(
        "repro-bench",
        "Benchmark the simulated core and compare results across changes.",
        epilog=_EPILOG,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run benchmarks and print/record results")
    run.add_argument("names", nargs="*", metavar="BENCH",
                     help="benchmarks to run (default: the full curated set)")
    run.add_argument("--quick", action="store_true",
                     help=f"CI smoke mode: ~{QUICK_SCALE}x fewer iterations")
    run.add_argument("--label", default="local",
                     help="label stored in the artifact (default: local)")
    run.add_argument("--out", default=None, metavar="PATH",
                     help="write a BENCH_<label>.json artifact here")
    run.add_argument("--profile", action="store_true",
                     help="also write a cProfile BENCH_<label>.<bench>.pstats "
                          "per benchmark next to the artifact (one warmed "
                          "repetition each; for attribution, not throughput)")

    cmp_ = sub.add_parser("compare", help="diff two benchmark artifacts")
    cmp_.add_argument("old", help="baseline BENCH_*.json")
    cmp_.add_argument("new", help="candidate BENCH_*.json")
    cmp_.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                      metavar="FRAC",
                      help="throughput drop that counts as a regression "
                           f"(default {DEFAULT_THRESHOLD})")

    sub.add_parser("list", help="list the registered benchmarks")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _run(args)
        if args.command == "compare":
            return _compare(args)
        return _list()
    except KeyboardInterrupt:
        print("repro-bench: interrupted", file=sys.stderr)
        return exitcodes.EXIT_INTERRUPTED
    except (ReproError, OSError) as exc:
        print(f"repro-bench: {exc}", file=sys.stderr)
        return exitcodes.EXIT_USAGE


def _run(args) -> int:
    results = run_benchmarks(
        args.names or None,
        quick=args.quick,
        progress=lambda name: print(f"  .. {name}", file=sys.stderr),
    )
    mode = "quick" if args.quick else "full"
    print(f"{'benchmark':<26} {'best ops/s':>14} {'median':>14} "
          f"{'spread':>7}  unit        ({mode})")
    for m in results:
        print(f"{m.name:<26} {m.ops_per_s:>14,.0f} {m.median_ops_per_s:>14,.0f} "
              f"{m.spread:>6.1%}  {m.unit}")
    if args.out is not None:
        payload = make_artifact(results, label=args.label, quick=args.quick)
        write_artifact(args.out, payload)
        print(f"wrote {args.out}")
    if args.profile:
        base = Path(args.out).parent if args.out is not None else Path(".")
        for m in results:
            path = base / f"BENCH_{args.label}.{m.name}.pstats"
            profile_benchmark(m.name, quick=args.quick).dump_stats(path)
            print(f"wrote {path}")
    return exitcodes.EXIT_OK


def _compare(args) -> int:
    old = load_artifact(args.old)
    new = load_artifact(args.new)
    rows = compare_artifacts(old, new, threshold=args.threshold)
    print(f"{'benchmark':<26} {'old ops/s':>14} {'new ops/s':>14} {'ratio':>8}")
    for row in rows:
        print(row.format_row())
    regressed = [row.name for row in rows if row.regressed]
    if regressed:
        print(
            f"REGRESSION: {', '.join(regressed)} "
            f"(threshold {args.threshold:.0%}, noise-adjusted)",
            file=sys.stderr,
        )
        return exitcodes.EXIT_FAILURES
    print(f"ok: no benchmark regressed beyond {args.threshold:.0%}")
    return exitcodes.EXIT_OK


def _list() -> int:
    for spec in BENCHMARKS.values():
        print(f"{spec.name:<26} {spec.unit:<12} {spec.title}")
    return exitcodes.EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
