"""End-to-end benchmark of the four campaign CLIs (see README.md).

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed S] [--seconds N]
                                  [--trace [0|1]] [--out DIR]

Each workload runs as rounds.  A round is a fresh interpreter
(``child.py``) that calls the CLI's ``main(argv)`` in-process on inputs
made from ``--seed``; every round of a run repeats the same inputs.
Rounds start until ``--seconds`` would be exceeded, and the end-to-end
metrics are medians over rounds, measured with tracing off.  With
``--trace 1`` half the time goes to untraced rounds and one more round
runs with spans wrapped around the layers (``spans.py``); its per-layer
metrics replace the end-to-end ones in the result line.

Every metric is printed by name with its unit; the last line of stdout
is one JSON object ``{"correct", "attempted", "failed", "metrics"}`` per
workload.  ``--out DIR`` also keeps ``result-<workload>.json`` (and
``trace-<workload>.json``) for ``compare.py``.  Scratch files live under
``.e2e-work/`` at the repository root and are removed before exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import spans
from workloads import ATTACK_MITIGATIONS, EXPERIMENT_NAMES, WORKLOADS

__all__ = ["DEFAULT_SECONDS", "END_TO_END", "PER_LAYER", "RoundError",
           "run_workload"]

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
SRC = REPO / "src"
WORK = REPO / ".e2e-work"

DEFAULT_SECONDS = 25
#: Set-up time is the median of at least this many interpreter launches;
#: launches that only set up make up the count when rounds are few.
SETUP_SAMPLES = 5
#: A round that runs longer than this is killed and fails the run.
ROUND_TIMEOUT_S = 150
#: Nominal CPU time of one child.SpeedProbe sample.  Each main call's
#: wall time is scaled by the mean of PROBE_REF_S / sample over the
#: samples taken during the call, so ops_per_s is the throughput of a
#: host whose probe loop takes exactly this long (README.md).
PROBE_REF_S = 0.0004


class RoundError(RuntimeError):
    """A round's interpreter crashed or hung; the run has no result."""


#: (name, unit) of the metrics in the result line, without and with --trace.
END_TO_END = (("setup_s", "s"), ("ops_per_s", "ops/s"), ("peak_rss_mb", "MB"))


def _per_layer() -> tuple[tuple[str, str], ...]:
    layers = [*spans.LAYER_NAMES,
              *(f"attacks.extraction.{m}" for m in ATTACK_MITIGATIONS)]
    schema = [(f"{layer}.{key}", unit)
              for layer in layers
              for key, unit in (("calls", "count"), ("share", "fraction"))]
    schema += [(f"experiments.driver.{name}.share", "fraction")
               for name in EXPERIMENT_NAMES]
    schema += [
        ("cpu.pipeline.run.sim_retired", "instructions"),
        ("cpu.pipeline.run.sim_cycles", "cycles"),
        ("cpu.pipeline.run.rollbacks", "count"),
        ("cpu.pipeline.run.stld_events", "count"),
        ("runtime.supervisor.busy_share", "fraction"),
        ("runtime.supervisor.tasks", "count"),
        ("runtime.supervisor.retried", "count"),
        ("runtime.supervisor.failed", "count"),
        ("runtime.atomic.write.bytes", "bytes"),
        ("sim_cycles_per_byte", "cycles/byte"),
        ("unattributed.share", "fraction"),
        ("trace.overhead", "ratio"),
    ]
    return tuple(schema)


PER_LAYER = _per_layer()


def _per_layer_values(trace: dict, sim_cycles_per_byte: float, overhead: float) -> dict:
    layers = trace["layers"]
    values = {}
    for name, _ in PER_LAYER:
        layer, _, key = name.rpartition(".")
        if layer in layers and key in ("calls", "share"):
            values[name] = layers[layer][key]
    for key, value in trace["pipeline"].items():
        values[f"cpu.pipeline.run.{key}"] = value
    for key in ("busy_share", "tasks", "retried", "failed"):
        values[f"runtime.supervisor.{key}"] = trace["supervisor"][key]
    values["runtime.atomic.write.bytes"] = (
        layers.get("runtime.atomic.write", {}).get("bytes", 0)
    )
    values["sim_cycles_per_byte"] = sim_cycles_per_byte
    values["unattributed.share"] = trace["unattributed_share"]
    values["trace.overhead"] = overhead
    return values


class _Run:
    """One workload run: its scratch directory and round counter."""

    def __init__(self, name: str, seed: int, size: int) -> None:
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.size = size
        self.dir = WORK / f"{name}-{os.getpid()}"
        self.rounds = 0

    def round(self, *, traced: bool = False, setup_only: bool = False) -> dict:
        """Launch one round, wait for it, check its outputs, delete them."""
        self.rounds += 1
        round_dir = self.dir / f"r{self.rounds}"
        round_dir.mkdir(parents=True)
        spec = round_dir / "spec.json"
        spec.write_text(json.dumps({
            "workload": self.workload.name, "seed": self.seed, "size": self.size,
            "trace": traced, "setup_only": setup_only,
        }))
        env = dict(os.environ, TMPDIR=str(round_dir), PYTHONPATH=os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
        ))
        log_path = round_dir / "child.log"
        with log_path.open("wb") as log:
            launched = time.monotonic()
            child = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), str(spec), repr(launched)],
                cwd=round_dir, env=env, stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True,
            )
            try:
                code = child.wait(timeout=ROUND_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                code = None
            finally:
                _stop_group(child)
        elapsed_s = time.monotonic() - launched
        if code != 0:
            tail = log_path.read_text(errors="replace")[-3000:]
            raise RoundError(
                f"{self.workload.name} round {self.rounds} "
                f"{'timed out' if code is None else f'exited {code}'}:\n{tail}"
            )
        record = json.loads((round_dir / "result.json").read_text())
        result = {"setup_s": _scaled_s(record["setup"]),
                  "setup_s_raw": record["setup"]["wall_s"], "elapsed_s": elapsed_s}
        if not setup_only:
            outcome = self.workload.check(self.seed, self.size, round_dir, record["calls"])
            calls = record["calls"]
            main_s = sum(call["wall_s"] for call in calls)
            scaled_s = sum(_scaled_s(call) for call in calls)
            ops = self.workload.ops(self.size)
            result.update(
                traced=traced, ops=ops, main_s=main_s, ops_per_s=ops / scaled_s,
                ops_per_s_raw=ops / main_s, speed=main_s / scaled_s,
                peak_rss_mb=record["peak_rss_mb"], failed=outcome.failed,
                digest=outcome.digest, problems=outcome.problems,
                exact=outcome.exact, exit_codes=[c["rc"] for c in record["calls"]],
            )
            if traced:
                result["trace"] = record["trace"]
        shutil.rmtree(round_dir)
        return result


def _scaled_s(interval: dict) -> float:
    """A timed interval's wall time, less the probe's, at nominal speed."""
    samples = interval["probe_samples"]
    speed = sum(PROBE_REF_S / sample for sample in samples) / len(samples)
    return (interval["wall_s"] - interval["probe_spent_s"]) * speed


def _stop_group(child: subprocess.Popen) -> None:
    """Kill whatever is left of the round's process group, then reap."""
    try:
        os.killpg(child.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    child.wait()


def _timed_rounds(run: _Run, budget_s: float) -> list[dict]:
    """Rounds until another one of typical length would overrun the budget."""
    rounds: list[dict] = []
    start = time.monotonic()
    while True:
        rounds.append(run.round())
        typical = median(r["elapsed_s"] for r in rounds)
        if time.monotonic() - start + typical > budget_s:
            return rounds


def run_workload(
    name: str,
    *,
    seed: int = 1,
    seconds: float = DEFAULT_SECONDS,
    trace: bool = False,
    size: int | None = None,
) -> dict:
    """Measure one workload; returns its full result (see README.md).

    ``size`` overrides the per-round work (fuzz/scan budget, experiment
    count, attack victim count); tests use it to stay small.
    """
    workload = WORKLOADS[name]
    run = _Run(name, seed, workload.size if size is None else size)
    try:
        rounds = _timed_rounds(run, seconds / 2 if trace else seconds)
        setups = list(rounds)
        while len(setups) < SETUP_SAMPLES:
            setups.append(run.round(setup_only=True))
        traced = run.round(traced=True) if trace else None
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it, or it is already gone

    measured = rounds + ([traced] if traced else [])
    problems = sorted({p for r in measured for p in r["problems"]})
    digests = {r["digest"] for r in measured}
    if len(digests) != 1 or "" in digests:
        problems.append(f"output digests differ between rounds: {sorted(digests)}")
    exact = [r["exact"] for r in measured]
    if any(e != exact[0] for e in exact):
        problems.append(f"simulated results differ between rounds: {exact}")
    attempted = sum(r["ops"] for r in measured)
    failed = sum(r["failed"] for r in measured)
    ops_per_s = median(r["ops_per_s"] for r in rounds)
    end_to_end = {
        "setup_s": median(r["setup_s"] for r in setups),
        "setup_s_raw": median(r["setup_s_raw"] for r in setups),
        "ops_per_s": ops_per_s,
        "ops_per_s_raw": median(r["ops_per_s_raw"] for r in rounds),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in rounds),
        "fail_share": failed / attempted,
        **exact[0],
        "output_digest": digests.pop() if len(digests) == 1 else None,
    }
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "size": run.size,
        "correct": not problems, "attempted": attempted, "failed": failed,
        "problems": problems, "end_to_end": end_to_end,
        "rounds": [{k: v for k, v in r.items() if k != "trace"} for r in measured],
        "setup_samples": [r["setup_s"] for r in setups],
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "machine": platform.machine(),
                 "date": time.strftime("%Y-%m-%d")},
    }
    if traced:
        result["trace"] = traced["trace"]
        values = _per_layer_values(
            traced["trace"], exact[0].get("sim_cycles_per_byte", 0.0),
            traced["ops_per_s"] / ops_per_s,
        )
        result["metrics"] = {n: {"value": values.get(n, 0), "unit": u}
                             for n, u in PER_LAYER}
    else:
        result["metrics"] = {n: {"value": end_to_end[n], "unit": u}
                             for n, u in END_TO_END}
    return result


def _report(result: dict) -> None:
    """Every metric by name with its unit, then the JSON result line."""
    name = result["workload"]
    e2e = result["end_to_end"]
    units = dict(END_TO_END, setup_s_raw="s", ops_per_s_raw="ops/s",
                 fail_share="fraction", sim_cycles_per_byte="cycles/byte")
    print(f"{name}: {len(result['rounds'])} round(s), seed {result['seed']}, "
          f"{result['attempted']} ops attempted, {result['failed']} failed")
    for key, unit in units.items():
        if key in e2e:
            print(f"  {key:<44s} {e2e[key]:>14.6g} {unit}")
    print(f"  {'output_digest':<44s} {e2e['output_digest']}")
    if "trace" in result:
        trace = result["trace"]
        print(f"  traced round: {trace['total_s']:.3f} s of process time")
        for layer, stats in sorted(trace["layers"].items(),
                                   key=lambda item: -item[1]["self_s"]):
            extra = "".join(f" {k}={stats[k]:.1f}" for k in ("p50_us", "p99_us")
                            if k in stats)
            print(f"    {layer:<42s} {stats['calls']:>8d} calls "
                  f"{stats['self_s']:>9.3f} s self {stats['share']:>7.1%}{extra}")
        for prefix, group in (("runtime.supervisor", "supervisor"),
                              ("cpu.pipeline.run", "pipeline")):
            for key, value in trace[group].items():
                print(f"    {prefix + '.' + key:<42s} {value:>14.6g}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:<44s} {entry['value']:>14.6g} {entry['unit']}")
    for problem in result["problems"]:
        print(f"  PROBLEM: {problem}")
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}), flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), action="append",
                        help="workload to run (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=1,
                        help="input seed (default 1; re-check claims at 2)")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help=f"measuring time per workload (default {DEFAULT_SECONDS})")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1,
                        default=0, help="also run one traced round and report "
                                        "the per-layer metrics")
    parser.add_argument("--out", type=Path, default=None,
                        help="keep result-<workload>.json (and trace-*.json) here")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"run.py: no package at {SRC / 'repro'}; run from a full checkout",
              file=sys.stderr)
        return 2
    for name in args.workload or list(WORKLOADS):
        try:
            result = run_workload(name, seed=args.seed, seconds=args.seconds,
                                  trace=bool(args.trace))
        except RoundError as exc:
            print(f"run.py: {exc}", file=sys.stderr)
            return 1
        if args.out is not None:
            args.out.mkdir(parents=True, exist_ok=True)
            (args.out / f"result-{name}.json").write_text(
                json.dumps(result, indent=2, sort_keys=True) + "\n")
            if "trace" in result:
                (args.out / f"trace-{name}.json").write_text(
                    json.dumps(result["trace"], indent=2, sort_keys=True) + "\n")
        _report(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
