"""Compare two sets of end-to-end benchmark results.

    python3 benchmarks/e2e/compare.py A B

``A`` (the parent) and ``B`` (the change) are directories searched
recursively for ``result-<workload>.json`` files written by
``run.py --out``; put several runs of each side under one directory.  For
every workload and end-to-end metric this prints each side's median and
interquartile range (IQR) and a verdict, using the bounds in
``BENCHMARK.json``:

* ``unresolved`` - a side's IQR, as a share of its median, exceeds the
  bound, unless every run of B reads better than every run of A;
* ``worse`` - B's median is worse than A's by more than the bound;
* ``improved`` - B wins at least nine tenths of all (A, B) run pairs and
  the medians differ by more than A's own IQR;
* ``unchanged`` - otherwise.

Runs of the same seed must also agree exactly on ``fail_share``,
``sim_cycles_per_byte`` and the output digest; any difference is listed.
Exits 1 when any metric is ``worse`` or an exact value moved.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from statistics import median, quantiles

__all__ = ["load_results", "summarize", "verdict"]

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
EXACT = ("fail_share", "sim_cycles_per_byte", "output_digest")


def load_results(directory: Path) -> dict[str, list[dict]]:
    """``workload -> [result, ...]`` for every result file under ``directory``."""
    results: dict[str, list[dict]] = {}
    for path in sorted(Path(directory).rglob("result-*.json")):
        result = json.loads(path.read_text())
        results.setdefault(result["workload"], []).append(result)
    return results


def summarize(values: list[float]) -> tuple[float, float]:
    """Median and interquartile range (0 with fewer than two values)."""
    if len(values) < 2:
        return values[0], 0.0
    q1, _, q3 = quantiles(values, n=4)
    return median(values), q3 - q1


def verdict(a: list[float], b: list[float], *, better: str, bound: float) -> str:
    """The verdict for one metric on one workload; see the module docstring."""
    sign = 1.0 if better == "higher" else -1.0
    (med_a, iqr_a), (med_b, iqr_b) = summarize(a), summarize(b)
    wins = sum(sign * y > sign * x for x in a for y in b)
    if max(iqr_a / abs(med_a), iqr_b / abs(med_b)) > bound:
        return "improved" if wins == len(a) * len(b) else "unresolved"
    if sign * (med_a - med_b) / abs(med_a) > bound:
        return "worse"
    if wins >= 0.9 * len(a) * len(b) and sign * (med_b - med_a) > iqr_a:
        return "improved"
    return "unchanged"


def _exact_moves(name: str, a: list[dict], b: list[dict]) -> list[str]:
    moves = []
    by_seed = {r["seed"]: r["end_to_end"] for r in a}
    for result in b:
        before = by_seed.get(result["seed"])
        if before is None:
            continue
        for key in EXACT:
            if before.get(key) != result["end_to_end"].get(key):
                moves.append(f"{name} seed {result['seed']}: {key} "
                             f"{before.get(key)} -> {result['end_to_end'].get(key)}")
    return moves


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="result directory of the parent")
    parser.add_argument("b", type=Path, help="result directory of the change")
    args = parser.parse_args(argv)
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    sides = load_results(args.a), load_results(args.b)
    worse = False
    moves: list[str] = []
    print(f"{'workload':<12s} {'metric':<12s} {'A median':>12s} {'A IQR':>10s} "
          f"{'B median':>12s} {'B IQR':>10s} {'change':>8s}  verdict")
    for name in sorted(set(sides[0]) & set(sides[1])):
        a_runs, b_runs = sides[0][name], sides[1][name]
        for metric in metrics:
            key = metric["name"]
            a = [r["end_to_end"][key] for r in a_runs]
            b = [r["end_to_end"][key] for r in b_runs]
            (med_a, iqr_a), (med_b, iqr_b) = summarize(a), summarize(b)
            call = verdict(a, b, better=metric["better"], bound=metric["bound"])
            worse |= call == "worse"
            print(f"{name:<12s} {key:<12s} {med_a:>12.4g} {iqr_a:>10.3g} "
                  f"{med_b:>12.4g} {iqr_b:>10.3g} {(med_b - med_a) / med_a:>+8.1%}  "
                  f"{call}  ({len(a)} vs {len(b)} runs)")
        moves += _exact_moves(name, a_runs, b_runs)
    for move in moves:
        print(f"EXACT VALUE MOVED: {move}")
    return 1 if worse or moves else 0


if __name__ == "__main__":
    sys.exit(main())
