"""Per-call spans around the layers' public functions, installed from outside.

:func:`install` replaces every function named in :data:`LAYERS` with a
wrapper that records one span per call: name, start, end, parent and op
id.  A module-level function is replaced in its defining module and in
every loaded module that bound it by name (``compare_architectural`` is
bound in ``repro.fuzz.harness`` and ``repro.fuzz.oracle``); a method is
replaced on its class.  :func:`restore` puts every original back, also
in modules imported while the wrappers were live.  Nothing under ``src/``
knows about any of this.

Spans stay in memory.  Supervised pool workers are forked, so they inherit
the wrappers; each worker appends its spans to ``spans-<pid>.jsonl``
whenever a top-level span closes, and :func:`summarize` merges those files
with the parent's spans.

A span's self time is its duration minus the durations of its direct
children.  The total is process time: the parent's ``main`` calls plus
each pool worker's task spans, less the time the parent only waited for
its pool (see :func:`summarize`).  Every second of it lies in exactly one
span's self time, so the layer shares plus ``unattributed`` sum to 1.
"""

from __future__ import annotations

import functools
import importlib
import json
import multiprocessing
import os
import sys
import time
import weakref
from pathlib import Path
from statistics import quantiles
from typing import Any, Callable

__all__ = ["LAYERS", "LAYER_NAMES", "ROOT", "TASK", "Recorder", "install",
           "restore", "summarize"]

#: The benchmark's span around each CLI ``main`` call.
ROOT = "cli.main"
#: The span around one supervised task, in whichever process runs it.
TASK = "runtime.worker.task"
#: Layers reported per call at or above this count get p50/p99.
PERCENTILE_MIN_CALLS = 1000

#: (layer, "module:qualname") for every wrapped public function.
LAYERS: tuple[tuple[str, str], ...] = (
    ("cpu.machine.construct", "repro.cpu.machine:Machine.__init__"),
    ("osm.kernel.setup", "repro.osm.kernel:Kernel.create_process"),
    ("osm.kernel.setup", "repro.osm.kernel:Kernel.map_anonymous"),
    ("osm.kernel.memio", "repro.osm.kernel:Kernel.write"),
    ("osm.kernel.memio", "repro.osm.kernel:Kernel.read"),
    ("osm.kernel.schedule", "repro.osm.kernel:Kernel.schedule"),
    ("cpu.machine.load_program", "repro.cpu.machine:Machine.load_program"),
    ("cpu.isa.decode", "repro.cpu.isa:Program.decoded"),
    ("cpu.pipeline.run", "repro.cpu.pipeline:Pipeline.run"),
    ("cpu.pipeline.run", "repro.cpu.machine:Machine.run_smt"),
    ("cpu.reference.run", "repro.cpu.reference:ReferenceInterpreter.run"),
    ("fuzz.gen", "repro.fuzz.gen:build_program"),
    ("fuzz.harness.execute", "repro.fuzz.harness:execute_program"),
    ("fuzz.oracle.observe", "repro.fuzz.oracle:observe_program"),
    ("fuzz.compare", "repro.fuzz.compare:compare_architectural"),
    ("fuzz.shrink", "repro.fuzz.shrink:shrink_report"),
    ("static.scan", "repro.static.gadgets:scan_program"),
    ("static.lift", "repro.static.ir:lift"),
    ("static.taint", "repro.static.taint:analyze_taint"),
    ("static.windows", "repro.static.windows:bypass_edges"),
    ("static.windows", "repro.static.windows:branch_windows"),
    ("experiments.driver", "repro.experiments.runner:run_experiment"),
    ("experiments.serialize", "repro.experiments.base:ExperimentResult.to_dict"),
    ("attacks.extraction", "repro.attacks.extraction:SecretExtraction.run"),
    ("runtime.supervisor", "repro.runtime.supervisor:run_supervised"),
    ("runtime.atomic.write", "repro.runtime.atomic:atomic_write_json"),
    ("runtime.atomic.write", "repro.runtime.atomic:atomic_write_text"),
)

#: Layers whose span name carries the call's subject.
_NAMED: dict[str, Callable[[tuple, dict], str]] = {
    "repro.experiments.runner:run_experiment":
        lambda args, kwargs: f"experiments.driver.{args[0]}",
    "repro.attacks.extraction:SecretExtraction.run":
        lambda args, kwargs: f"attacks.extraction.{args[0].mitigation}",
}


def _run_counts(args: tuple, kwargs: dict, result: Any) -> list[int]:
    """Simulated work of one Pipeline.run / Machine.run_smt call."""
    runs = result if isinstance(result, list) else [result]
    return [
        sum(run.retired for run in runs),
        sum(run.cycles for run in runs),
        sum(run.rollbacks for run in runs),
        sum(len(run.events) for run in runs),
    ]


def _text_bytes(args: tuple, kwargs: dict, result: Any) -> int:
    text = kwargs["text"] if "text" in kwargs else args[1]
    return len(text.encode(kwargs.get("encoding", "utf-8")))


#: Per-call numbers taken from a layer's arguments and result.
_MEASURED: dict[str, Callable[[tuple, dict, Any], Any]] = {
    "repro.cpu.pipeline:Pipeline.run": _run_counts,
    "repro.cpu.machine:Machine.run_smt": _run_counts,
    "repro.runtime.atomic:atomic_write_text": _text_bytes,
}

#: Every layer with a fixed name, in table order.
LAYER_NAMES: tuple[str, ...] = tuple(dict.fromkeys(
    layer for layer, target in LAYERS if target not in _NAMED
))


class Recorder:
    """Open and closed spans of one process; see the module docstring."""

    def __init__(self, spill_dir: Path, clock: Callable[[], int] = time.perf_counter_ns):
        self.spill_dir = Path(spill_dir)
        self.clock = clock
        #: Closed spans: (id, parent id or 0, name, start, end, self, op, extra).
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self._next_id = 0
        self._in_worker = False
        method = weakref.WeakMethod(self._after_fork)
        os.register_at_fork(after_in_child=lambda: (m := method()) and m())

    def _after_fork(self) -> None:
        # The child starts with no spans of its own; the parent's open
        # spans (main, run_supervised) are not its ancestors.
        self.spans = []
        self._stack = []
        self._in_worker = True

    def open(self, name: str, op: Any = None) -> int:
        """Open a span inside the innermost open one; returns its id."""
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            op = parent[5] if op is None else op
        self._next_id += 1
        self._stack.append(
            [self._next_id, parent[0] if parent else 0, name, self.clock(), 0, op]
        )
        return self._next_id

    def close(self, extra: Any = None) -> None:
        end = self.clock()
        ident, parent, name, start, children, op = self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][4] += duration
        self.spans.append((ident, parent, name, start, end, duration - children, op, extra))
        if self._in_worker and not self._stack:
            self._spill()

    def _spill(self) -> None:
        path = self.spill_dir / f"spans-{os.getpid()}.jsonl"
        with path.open("a") as handle:
            handle.writelines(json.dumps(span) + "\n" for span in self.spans)
        self.spans = []


def _span_wrapper(recorder: Recorder, layer: str, target: str, fn: Callable) -> Callable:
    named, measured = _NAMED.get(target), _MEASURED.get(target)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        recorder.open(named(args, kwargs) if named else layer)
        extra = None
        try:
            result = fn(*args, **kwargs)
            if measured is not None:
                extra = measured(args, kwargs, result)
            return result
        finally:
            recorder.close(extra)

    return wrapper


def _supervised_wrapper(recorder: Recorder, fn: Callable) -> Callable:
    """``run_supervised`` with a task span around every worker call.

    Payloads travel as ``(task_id, payload)`` so the span knows its op id
    in whichever process runs it; the worker still receives the payload
    alone.  Each task span records ``(pid, span id)`` of the supervisor
    call that dispatched it.  Forked workers inherit the closure, so
    nothing is pickled.
    """

    @functools.wraps(fn)
    def wrapper(tasks, worker, *args, **kwargs):
        items = [(task_id, (task_id, payload)) for task_id, payload in tasks]
        caller: list[int] = []

        def traced_worker(item):
            task_id, payload = item
            recorder.open(TASK, op=task_id)
            try:
                return worker(payload)
            finally:
                recorder.close(caller)

        caller += [os.getpid(), recorder.open("runtime.supervisor")]
        extra = None
        try:
            report = fn(items, traced_worker, *args, **kwargs)
            extra = {
                "tasks": len(items),
                "workers": max(1, min(kwargs.get("jobs", 1), len(items))),
                "retried": report.retried,
                "failed": len(report.failures),
            }
            return report
        finally:
            recorder.close(extra)

    return wrapper


def _resolve(target: str) -> tuple[Any, str]:
    module_name, qualname = target.split(":")
    owner: Any = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def _module_dicts() -> list[tuple[Any, dict]]:
    return [
        (module, vars(module)) for module in list(sys.modules.values())
        if isinstance(getattr(module, "__dict__", None), dict)
    ]


def install(recorder: Recorder) -> dict[int, tuple[Callable, Callable]]:
    """Wrap every layer function; returns what :func:`restore` needs."""
    if multiprocessing.get_start_method() != "fork":
        raise RuntimeError("tracing pool workers needs the 'fork' start method")
    swaps: dict[int, tuple[Callable, Callable]] = {}  # id(original) -> pair
    for layer, target in LAYERS:
        owner, attr = _resolve(target)
        original = vars(owner)[attr]
        if layer == "runtime.supervisor":
            wrapper = _supervised_wrapper(recorder, original)
        else:
            wrapper = _span_wrapper(recorder, layer, target, original)
        swaps[id(original)] = (original, wrapper)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
    for module, namespace in _module_dicts():
        for name, value in list(namespace.items()):
            pair = swaps.get(id(value))
            if pair is not None and pair[0] is value:
                setattr(module, name, pair[1])
    return swaps


def restore(swaps: dict[int, tuple[Callable, Callable]]) -> None:
    """Put every original back wherever a wrapper is bound."""
    originals = {id(wrapper): original for original, wrapper in swaps.values()}
    for layer, target in LAYERS:
        owner, attr = _resolve(target)
        if isinstance(owner, type):
            setattr(owner, attr, originals[id(vars(owner)[attr])])
    for module, namespace in _module_dicts():
        for name, value in list(namespace.items()):
            original = originals.get(id(value))
            if original is not None and swaps[id(original)][1] is value:
                setattr(module, name, original)


def _load_spills(spill_dir: Path) -> list[tuple[int, list[tuple]]]:
    """``(pid, spans)`` for every pool worker's spill file."""
    return [
        (int(path.stem.split("-")[1]),
         [tuple(json.loads(line)) for line in path.read_text().splitlines()])
        for path in sorted(Path(spill_dir).glob("spans-*.jsonl"))
    ]


def summarize(recorder: Recorder) -> dict:
    """Per-layer calls, self time, share and percentiles over all processes.

    ``calls`` counts entries into a layer: a span directly inside a span
    of the same name (``atomic_write_json`` calling ``atomic_write_text``)
    adds self time but no call.  While a pool runs a supervised call's
    tasks, the calling process only waits, and the workers' task spans
    already count that time.  So such a call keeps as self time only its
    overhead: the wall time its pool was not busy (dispatch, IPC, spawn,
    imbalance), and the waiting leaves the total.
    """
    processes = [(os.getpid(), recorder.spans), *_load_spills(recorder.spill_dir)]
    busy: dict[tuple, list[int]] = {}  # supervisor call -> [all, in a pool]
    for pid, spans in processes:
        for span in spans:
            if span[2] == TASK:
                entry = busy.setdefault(tuple(span[7]), [0, 0])
                entry[0] += span[4] - span[3]
                entry[1] += span[4] - span[3] if span[7][0] != pid else 0
    layers: dict[str, dict] = {}
    durations: dict[str, list[int]] = {}
    total = 0
    sim = [0, 0, 0, 0]
    pipeline_ns = 0
    supervisor = {"tasks": 0, "retried": 0, "failed": 0, "wall_ns": 0,
                  "capacity_ns": 0, "busy_ns": 0, "overhead_ns": 0}
    for pid, spans in processes:
        names = {span[0]: span[2] for span in spans}
        for ident, parent, name, start, end, self_ns, op, extra in spans:
            duration = end - start
            if parent == 0:
                total += duration
            if name == "runtime.supervisor" and extra is not None:
                done, pooled = busy.get((pid, ident), (0, 0))
                overhead = max(0, duration - done // extra["workers"])
                if pooled:
                    waiting = max(0, self_ns - overhead)
                    self_ns -= waiting
                    total -= waiting
                for key in ("tasks", "retried", "failed"):
                    supervisor[key] += extra[key]
                supervisor["wall_ns"] += duration
                supervisor["capacity_ns"] += extra["workers"] * duration
                supervisor["busy_ns"] += done
                supervisor["overhead_ns"] += overhead
            stats = layers.setdefault(name, {"calls": 0, "self_ns": 0})
            stats["self_ns"] += self_ns
            if names.get(parent) != name:
                stats["calls"] += 1
                durations.setdefault(name, []).append(duration)
            if name == "cpu.pipeline.run" and extra is not None:
                sim = [a + b for a, b in zip(sim, extra)]
                if names.get(parent) != name:
                    pipeline_ns += duration
            elif name == "runtime.atomic.write" and extra is not None:
                stats["bytes"] = stats.get("bytes", 0) + extra
    out: dict[str, dict] = {}
    for name, stats in sorted(layers.items()):
        entry = {
            "calls": stats["calls"],
            "self_s": stats["self_ns"] / 1e9,
            "share": stats["self_ns"] / total if total else 0.0,
        }
        if stats["calls"] >= PERCENTILE_MIN_CALLS:
            cuts = quantiles(durations[name], n=100)
            entry["p50_us"] = cuts[49] / 1e3
            entry["p99_us"] = cuts[98] / 1e3
        if "bytes" in stats:
            entry["bytes"] = stats["bytes"]
        out[name] = entry
    capacity = supervisor["capacity_ns"]
    unattributed = sum(
        layers[name]["self_ns"] for name in (ROOT, TASK) if name in layers
    )
    return {
        "total_s": total / 1e9,
        "unattributed_share": unattributed / total if total else 0.0,
        "layers": out,
        "pipeline": {
            "sim_retired": sim[0],
            "sim_cycles": sim[1],
            "rollbacks": sim[2],
            "stld_events": sim[3],
            "host_ns_per_sim_instr": pipeline_ns / sim[0] if sim[0] else 0.0,
        },
        "supervisor": {
            "wall_s": supervisor["wall_ns"] / 1e9,
            "busy_share": supervisor["busy_ns"] / capacity if capacity else 0.0,
            "overhead_s": supervisor["overhead_ns"] / 1e9,
            "tasks": supervisor["tasks"],
            "retried": supervisor["retried"],
            "failed": supervisor["failed"],
        },
    }
