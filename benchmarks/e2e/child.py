"""One benchmark round in a fresh interpreter: set up, call the CLI, report.

``run.py`` starts this as ``python child.py SPEC.json LAUNCHED`` with
``src`` on ``PYTHONPATH``; ``LAUNCHED`` is its ``time.monotonic()`` just
before the launch (CLOCK_MONOTONIC is system-wide, so the two clocks
agree).  Set-up time runs from the launch to the first ``main`` call:
interpreter start, imports, input preparation and, when tracing,
installing the spans.  The round's record goes to ``result.json`` next to
the spec; the CLI's own stdout and stderr are captured, not printed.
Every timed interval carries the :class:`SpeedProbe` samples taken
during it.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import os
import random
import resource
import signal
import sys
import time
from pathlib import Path

import spans
import workloads

#: Seconds between two speed samples during a ``main`` call.
PROBE_INTERVAL_S = 0.05
#: Iterations of each sampled loop (together 0.2-0.5 ms of CPU time).
PROBE_LOOPS = 4000
#: The memory loop reads these slots of a 64Ki-entry table in random order.
_TABLE = list(range(1 << 16))
_WALK = random.Random(0).sample(range(1 << 16), PROBE_LOOPS)


class SpeedProbe:
    """Samples how fast this host runs Python while ``main`` runs.

    Shared hosts change speed by up to a factor of two for seconds to
    minutes at a time.  Every ``PROBE_INTERVAL_S`` a SIGALRM handler times
    two fixed pure-Python loops in thread CPU time, so preemption does not
    count but a slowed core does: an arithmetic loop and random reads from
    a 64Ki-entry table.  A sample is the geometric mean of the two; on this
    repository's workloads the arithmetic loop alone under-corrects the
    memory-heavy scanner and the table walk alone over-corrects.
    ``run.py`` scales each call's wall time by the samples.  Interval
    timers are not inherited across fork, so each pool worker starts its
    own probe, which appends to ``spill``.
    """

    def __init__(self, spill: Path | None = None) -> None:
        self.samples: list[float] = []
        self.spill = spill
        #: Wall time spent inside the probe, removed from the call's time.
        self.spent_s = 0.0

    def sample(self, *_: object) -> None:
        wall = time.perf_counter()
        start = time.thread_time()
        total = 0
        for i in range(PROBE_LOOPS):
            total += i * i % 7
        middle = time.thread_time()
        for i in _WALK:
            total += _TABLE[i]
        cpu_s = math.sqrt((middle - start) * (time.thread_time() - middle))
        if self.spill is None:
            self.samples.append(cpu_s)
        else:
            with self.spill.open("a") as handle:
                handle.write(f"{cpu_s!r}\n")
        self.spent_s += time.perf_counter() - wall

    def start(self) -> "SpeedProbe":
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _worker_samples(round_dir: Path) -> list[float]:
    """Samples the call's pool workers spilled; the files are consumed."""
    samples = []
    for path in sorted(round_dir.glob("probe-*.txt")):
        samples += [float(line) for line in path.read_text().split()]
        path.unlink()
    return samples


def main(spec_path: str, launched: float) -> None:
    setup_probe = SpeedProbe()
    setup_probe.sample()
    spec = json.loads(Path(spec_path).read_text())
    round_dir = Path(spec_path).parent
    workload = workloads.WORKLOADS[spec["workload"]]
    cli = importlib.import_module(workload.module)
    argvs = workload.plan(spec["seed"], spec["size"], round_dir)
    recorder = swaps = None
    if spec["trace"]:
        recorder = spans.Recorder(round_dir)
        swaps = spans.install(recorder)
    setup_probe.sample()
    setup = {"wall_s": time.monotonic() - launched, "probe_spent_s": setup_probe.spent_s,
             "probe_samples": setup_probe.samples}
    os.register_at_fork(after_in_child=lambda: SpeedProbe(
        round_dir / f"probe-{os.getpid()}.txt").start())
    calls = []
    for argv in [] if spec["setup_only"] else argvs:
        stdout, stderr = io.StringIO(), io.StringIO()
        probe = SpeedProbe().start()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                start = time.perf_counter()
                if recorder is not None:
                    recorder.open(spans.ROOT)
                try:
                    rc = cli.main(argv)
                finally:
                    if recorder is not None:
                        recorder.close()
                wall_s = time.perf_counter() - start
        finally:
            probe.stop()
        # Where pool workers did the work, their samples describe the
        # cores it ran on; this process mostly waited.
        samples = _worker_samples(round_dir) or probe.samples
        calls.append({
            "rc": rc, "wall_s": wall_s, "stdout": stdout.getvalue(),
            "probe_spent_s": probe.spent_s, "probe_samples": samples,
        })
    record = {"setup": setup, "calls": calls}
    if recorder is not None:
        spans.restore(swaps)
        record["trace"] = spans.summarize(recorder)
    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN covers the reaped
    # pool workers.
    record["peak_rss_mb"] = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024
    (round_dir / "result.json").write_text(json.dumps(record))


if __name__ == "__main__":
    main(sys.argv[1], float(sys.argv[2]))
