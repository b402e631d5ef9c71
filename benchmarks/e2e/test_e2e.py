"""Tests for the end-to-end benchmark.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``; the
small workload runs take under a minute in all.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import run
import spans

HERE = Path(__file__).resolve().parent
DECLARED = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())

#: Per-round sizes small enough for a test.
SMALL = {"fuzz": 2, "experiments": 2, "attack": 1, "scan": 4}


def test_self_time_subtracts_direct_children(tmp_path):
    # main [0, 100] holds a [10, 40], which holds a nested a [15, 25],
    # and b [50, 55].
    ticks = iter([0, 10, 15, 25, 40, 50, 55, 100])
    recorder = spans.Recorder(tmp_path, clock=lambda: next(ticks))
    recorder.open(spans.ROOT)
    recorder.open("a")
    recorder.open("a")
    recorder.close()
    recorder.close()
    recorder.open("b")
    recorder.close()
    recorder.close()

    summary = spans.summarize(recorder)
    layers = summary["layers"]
    assert summary["total_s"] == pytest.approx(100e-9)
    assert layers["a"]["self_s"] == pytest.approx(30e-9)  # 20 outer + 10 inner
    assert layers["a"]["calls"] == 1  # the nested call does not enter again
    assert layers["b"]["self_s"] == pytest.approx(5e-9)
    assert layers[spans.ROOT]["self_s"] == pytest.approx(65e-9)
    assert summary["unattributed_share"] == pytest.approx(0.65)
    assert sum(layer["share"] for layer in layers.values()) == pytest.approx(1.0)


def _bindings() -> dict[tuple[int, str], object]:
    """Every place a wrapped layer function is bound, by identity."""
    targets = {}
    for _, target in spans.LAYERS:
        owner, attr = spans._resolve(target)
        targets[id(vars(owner)[attr])] = (owner, attr)
    found = {(id(owner), attr): vars(owner)[attr] for owner, attr in targets.values()}
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if isinstance(namespace, dict):
            for name, value in namespace.items():
                if id(value) in targets:
                    found[(id(module), name)] = value
    return found


def test_install_reaches_bound_names_and_restores_them(tmp_path):
    import repro.fuzz.compare
    import repro.fuzz.harness
    import repro.fuzz.oracle
    import repro.static.cli  # binds atomic_write_text and scan_program
    from repro.cpu.machine import Machine

    original = repro.fuzz.compare.compare_architectural
    write_text = repro.static.cli.atomic_write_text
    before = _bindings()
    recorder = spans.Recorder(tmp_path)
    swaps = spans.install(recorder)
    try:
        for module in (repro.fuzz.compare, repro.fuzz.harness, repro.fuzz.oracle):
            assert module.compare_architectural is not original
            assert module.compare_architectural.__wrapped__ is original
        assert repro.static.cli.atomic_write_text.__wrapped__ is write_text
        Machine(seed=1)
    finally:
        spans.restore(swaps)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert [span[2] for span in recorder.spans] == ["cpu.machine.construct"]


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_small_run_emits_declared_metrics_and_same_digest_traced(name):
    plain = run.run_workload(name, seed=2, seconds=0, size=SMALL[name])
    traced = run.run_workload(name, seed=2, seconds=0, trace=True, size=SMALL[name])
    for result in (plain, traced):
        assert result["correct"], result["problems"]
        assert result["failed"] == 0
        assert result["attempted"] >= 1
    assert {n: m["unit"] for n, m in plain["metrics"].items()} == {
        m["name"]: m["unit"] for m in DECLARED["end_to_end"]
    }
    assert {n: m["unit"] for n, m in traced["metrics"].items()} == {
        m["name"]: m["unit"] for m in DECLARED["per_layer"]
    }
    assert plain["end_to_end"]["output_digest"] == traced["end_to_end"]["output_digest"]
    assert 0 < traced["metrics"]["trace.overhead"]["value"]
    # Pool waiting leaves the total and the supervisor's self time alike.
    shares = [layer["share"] for layer in traced["trace"]["layers"].values()]
    assert sum(shares) == pytest.approx(1.0)


def test_benchmark_json_matches_the_runner():
    assert DECLARED["run_seconds"] == run.DEFAULT_SECONDS
    assert [w["name"] for w in DECLARED["workloads"]] == list(run.WORKLOADS)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parents[1] / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, *DECLARED["command"][1:], "--workload", "scan",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout


def test_verdicts():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(parent, [v * 1.3 for v in parent],
                           better="higher", bound=0.1) == "improved"
    assert compare.verdict(parent, [v * 0.8 for v in parent],
                           better="higher", bound=0.1) == "worse"
    assert compare.verdict(parent, [v * 0.8 for v in parent],
                           better="lower", bound=0.1) == "improved"
    assert compare.verdict(parent, parent, better="higher", bound=0.1) == "unchanged"
    assert compare.verdict([50.0, 100.0, 150.0], [100.0, 101.0],
                           better="higher", bound=0.1) == "unresolved"
