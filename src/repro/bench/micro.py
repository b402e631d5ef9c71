"""The curated microbenchmark set (``repro-bench run``).

One benchmark per layer that campaign throughput funnels through:

========================== =============================================
``machine.construct``       fresh :class:`Machine` objects/s: the setup
                            every run-once workload (each fuzz case
                            builds several) pays before simulating
``pipeline.steps``          raw interpreter throughput (retired
                            instructions/s) on a speculation-heavy
                            fuzz-v1 program, machine built once
``pipeline.snapshot_restore`` squash machinery: a program whose branches
                            mispredict on every run, so each run opens,
                            journals and rolls back transient windows
``pipeline.decode_cold``    first-run cost: a fresh :class:`Program`
                            object per run, so program decode is paid
                            every time (guards decode-cost regressions)
``predictor.access``        :meth:`PredictorUnit.predict` +
                            :meth:`PredictorUnit.access` pairs/s
``hashfn.ipa_hash``         the selection-hash fold over a cycling IPA
                            working set (the pipeline's re-hash pattern)
``fuzz.dual``               end-to-end differential throughput:
                            generate + dual-execute + compare, cases/s
``static.scan``             static gadget scan of the same program shape
                            ``fuzz.dual`` executes — the prefilter's side
                            of its speedup
``attack.channel``          covert-channel symbol transfer over the
                            cache transport (handshake excluded)
``attack.interference``     the same transfer with the ``adversarial``
                            interference preset attached — the model's
                            hook/burst/timer overhead relative to
                            ``attack.channel``
``campaign.experiments``    experiment-driver wall-clock (fig4 +
                            sec4-transient per iteration), experiments/s
``supervisor.batch_dispatch`` supervised-pool dispatch throughput for
                            homogeneous no-op tasks under adaptive
                            batching (pool spawn included): the
                            per-task supervision overhead campaigns pay
                            on top of real work
========================== =============================================

Every workload is seeded and side-effect-free outside its own machines,
so results are comparable run to run; noise handling lives in
:mod:`repro.bench.timing`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.bench.timing import Measurement, measure
from repro.core.hashfn import ipa_hash
from repro.core.predictor_unit import PredictorUnit
from repro.cpu.isa import Alu, AluImm, Halt, ImulImm, Jz, Label, MovImm, Program
from repro.cpu.machine import Machine
from repro.errors import ConfigError

__all__ = [
    "BenchSpec",
    "BENCHMARKS",
    "QUICK_SCALE",
    "profile_benchmark",
    "run_benchmarks",
]

#: Iteration scale-down applied by ``--quick`` (CI smoke mode).
QUICK_SCALE = 6


@dataclass(frozen=True)
class BenchSpec:
    """One registered microbenchmark."""

    name: str
    title: str
    unit: str
    factory: Callable[[int], Callable[[], float]]  # iters -> workload
    full_iters: int
    repeats: int = 5

    def iters(self, quick: bool) -> int:
        return max(1, self.full_iters // QUICK_SCALE) if quick else self.full_iters


# ----------------------------------------------------------------------
# Workload factories.  Each returns a zero-argument callable that does
# ``iters`` inner iterations and returns the units of work performed;
# machine construction stays outside the timed region (except in
# ``machine.construct``, which times nothing else).
# ----------------------------------------------------------------------

def _fuzz_machine(seed: int, gen_seed: int, blocks: int):
    from repro.fuzz.gen import BUF_BYTES, BUF_PAGES, build_program
    from repro.fuzz.harness import DEFAULT_FILL

    machine = Machine(seed=seed)
    process = machine.kernel.create_process("bench")
    buf = machine.kernel.map_anonymous(process, pages=BUF_PAGES)
    machine.kernel.write(process, buf, DEFAULT_FILL)
    program = machine.load_program(
        process, Program(build_program("fuzz-v1", gen_seed, blocks), name="bench")
    )
    refill = DEFAULT_FILL
    assert len(refill) == BUF_BYTES
    return machine, process, program, buf, refill


def _machine_construct(iters: int) -> Callable[[], float]:
    def run() -> float:
        for seed in range(iters):
            Machine(seed=seed)
        return iters

    return run


def _pipeline_steps(iters: int) -> Callable[[], float]:
    machine, process, program, buf, refill = _fuzz_machine(7, 5, 12)
    regs = {"buf": buf}

    def run() -> float:
        retired = 0
        write = machine.kernel.write
        execute = machine.run
        for _ in range(iters):
            write(process, buf, refill)
            retired += execute(process, program, regs).retired
        return retired

    return run


def _snapshot_program() -> Program:
    """Branches that mispredict on every run once the ``t0`` starting
    parity alternates run-to-run: each block opens a transient window
    (snapshot), executes wrong-path register writes (journal traffic)
    and squashes (restore)."""
    ins: list = [MovImm("one", 1), MovImm("w", 3)]
    for k in range(16):
        ins.append(Alu("t", "one", "t", "sub"))       # t = 1 - t (toggle)
        ins.append(ImulImm("c", "t", 1))              # delay the condition
        ins.append(ImulImm("c", "c", 1))
        ins.append(Jz("c", f"skip{k}"))
        ins.append(AluImm("w", "w", 1, "add"))        # wrong/right-path work
        ins.append(AluImm("w", "w", 3, "xor"))
        ins.append(MovImm("x", k))
        ins.append(Label(f"skip{k}"))
    ins.append(Halt())
    return Program(ins, name="bench-squash")


def _pipeline_snapshot_restore(iters: int) -> Callable[[], float]:
    machine = Machine(seed=3)
    process = machine.kernel.create_process("bench")
    program = machine.load_program(process, _snapshot_program())
    even = max(2, iters - (iters % 2))  # keep the parity pattern periodic

    def run() -> float:
        rollbacks = 0
        execute = machine.run
        for j in range(even):
            rollbacks += execute(process, program, {"t": j & 1}).rollbacks
        return rollbacks

    return run


def _pipeline_decode_cold(iters: int) -> Callable[[], float]:
    from repro.cpu.isa import clear_decode_cache
    from repro.fuzz.gen import BUF_PAGES, build_program
    from repro.fuzz.harness import DEFAULT_FILL

    machine = Machine(seed=11)
    process = machine.kernel.create_process("bench")
    buf = machine.kernel.map_anonymous(process, pages=BUF_PAGES)
    machine.kernel.write(process, buf, DEFAULT_FILL)
    instructions = build_program("fuzz-v1", 9, 10)
    template = machine.load_program(process, Program(instructions, name="bench"))

    def run() -> float:
        for _ in range(iters):
            # A fresh Program object at the same address, with the shared
            # content-keyed LRU dropped: every run pays layout + decode,
            # none can reuse a prior run's cached form (instance or
            # shared).  Without the clear this would measure the LRU hit
            # path, not decode.
            clear_decode_cache()
            fresh = Program(list(instructions), template.base_iva, "bench")
            machine.run(process, fresh, {"buf": buf})
        return iters

    return run


def _predictor_access(iters: int) -> Callable[[], float]:
    unit = PredictorUnit()
    pairs = [
        (ipa_hash(0x1000 + 8 * k), ipa_hash(0x9000 + 8 * k)) for k in range(256)
    ]

    def run() -> float:
        count = 0
        predict = unit.predict
        access = unit.access
        for _ in range(iters):
            for position, (store_hash, load_hash) in enumerate(pairs):
                predict(store_hash, load_hash)
                access(store_hash, load_hash, (position & 3) == 0)
                count += 2
        return count

    return run


def _hashfn_fold(iters: int) -> Callable[[], float]:
    # A 4K-entry working set cycled repeatedly: the pipeline's actual
    # usage pattern (the same store/load IPAs re-hashed every run).
    ipas = [0x7F00000000 + 64 * k for k in range(4096)]

    def run() -> float:
        fold = ipa_hash
        for _ in range(iters):
            for ipa in ipas:
                fold(ipa)
        return iters * len(ipas)

    return run


def _fuzz_dual(iters: int) -> Callable[[], float]:
    from repro.fuzz.harness import check_case

    def run() -> float:
        for seed in range(iters):
            check_case("fuzz-v1", 1000 + seed, 8)
        return iters

    return run


def _static_scan(iters: int) -> Callable[[], float]:
    """Static-scanner throughput on the same program shape ``fuzz.dual``
    executes dynamically.  ``fuzz.dual`` is a differential check, so the
    ratio of the two understates the prefilter's speedup;
    ``tests/static/test_speedup.py`` asserts >=10x against the two-fill
    oracle the prefilter actually replaces."""
    from repro.fuzz.gen import build_program
    from repro.static.gadgets import scan_program

    # Generation outside the timed region: the dynamic harness pays it
    # per case too, and the contract is about analysis vs execution.
    programs = [build_program("fuzz-v1", 1000 + seed, 8) for seed in range(iters)]

    def run() -> float:
        for instructions in programs:
            scan_program(instructions, mitigation="none")
        return len(programs)

    return run


def _attack_channel(iters: int) -> Callable[[], float]:
    from repro.attacks.capacity import CapacityConfig, build_channel
    from repro.attacks.coding import bytes_to_symbols, frame_symbols

    config = CapacityConfig(channel="cache", width=2, payload_bytes=4)
    channel = build_channel(config)  # machine + handshake outside the timer
    symbols = frame_symbols(
        bytes_to_symbols(b"\xa5\x5a\xc3\x3c", config.width), config.width
    )

    def run() -> float:
        transferred = 0
        transfer = channel.transfer
        for _ in range(iters):
            transferred += len(transfer(symbols))
        return transferred

    return run


def _attack_interference(iters: int) -> Callable[[], float]:
    """Cost of the interference model itself: the same cache-transport
    transfer as ``attack.channel`` but with the ``adversarial`` preset
    attached, so every inner ``machine.run`` pays the before/after hooks,
    co-runner bursts, preemptions and timer composition."""
    from repro.attacks.capacity import CapacityConfig, build_channel
    from repro.attacks.coding import bytes_to_symbols, frame_symbols

    config = CapacityConfig(
        channel="cache", width=2, payload_bytes=4, interference="adversarial"
    )
    channel = build_channel(config)  # machine + model + handshake untimed
    symbols = frame_symbols(
        bytes_to_symbols(b"\xa5\x5a\xc3\x3c", config.width), config.width
    )

    def run() -> float:
        transferred = 0
        transfer = channel.transfer
        for _ in range(iters):
            transferred += len(transfer(symbols))
        return transferred

    return run


def _campaign_experiments(iters: int) -> Callable[[], float]:
    from repro.experiments.runner import run_experiment

    names = ("fig4", "sec4-transient")

    def run() -> float:
        for _ in range(iters):
            for name in names:
                run_experiment(name)
        return iters * len(names)

    return run


def _bench_pool_task(payload):
    """Module-level no-op worker (must cross the process boundary)."""
    return payload


def _supervisor_batch_dispatch(iters: int) -> Callable[[], float]:
    """Supervised dispatch throughput with warm workers and batching.

    The tasks are no-ops, so the measurement isolates what the
    supervisor itself costs per task — pool spawn, batched pipe
    round-trips, deadline/crash bookkeeping — which is exactly the
    overhead task batching exists to amortize.  Uses the same
    ``jobs``/``timeout`` shape the fuzz campaign runs with.
    """
    from repro.runtime.supervisor import run_supervised

    def run() -> float:
        report = run_supervised(
            [(k, k) for k in range(iters)],
            _bench_pool_task,
            jobs=2,
            timeout=30.0,
            batch="adaptive",
        )
        if len(report.results) != iters or report.failures:
            raise ConfigError(
                f"supervisor bench lost tasks: {len(report.results)}/{iters} "
                f"completed, {len(report.failures)} failed"
            )
        return iters

    return run


#: The curated set, in display order.
BENCHMARKS: dict[str, BenchSpec] = {
    spec.name: spec
    for spec in (
        BenchSpec("machine.construct", "fresh Machine construction",
                  "machines/s", _machine_construct, full_iters=6000),
        BenchSpec("pipeline.steps", "pipeline interpreter throughput",
                  "steps/s", _pipeline_steps, full_iters=360),
        BenchSpec("pipeline.snapshot_restore", "transient-window squash machinery",
                  "restores/s", _pipeline_snapshot_restore, full_iters=360),
        BenchSpec("pipeline.decode_cold", "first-run cost (fresh Program per run)",
                  "runs/s", _pipeline_decode_cold, full_iters=240),
        BenchSpec("predictor.access", "PSFP/SSBP predict+update",
                  "accesses/s", _predictor_access, full_iters=60),
        BenchSpec("hashfn.ipa_hash", "IPA selection-hash fold",
                  "hashes/s", _hashfn_fold, full_iters=40),
        BenchSpec("fuzz.dual", "differential harness end-to-end",
                  "cases/s", _fuzz_dual, full_iters=18, repeats=3),
        BenchSpec("static.scan", "static gadget scan per program",
                  "scans/s", _static_scan, full_iters=180, repeats=3),
        BenchSpec("attack.channel", "covert-channel symbol transfer",
                  "symbols/s", _attack_channel, full_iters=12, repeats=3),
        BenchSpec("attack.interference", "channel transfer under adversarial noise",
                  "symbols/s", _attack_interference, full_iters=12, repeats=3),
        BenchSpec("campaign.experiments", "experiment drivers end-to-end",
                  "experiments/s", _campaign_experiments, full_iters=3, repeats=3),
        BenchSpec("supervisor.batch_dispatch", "batched warm-worker dispatch",
                  "tasks/s", _supervisor_batch_dispatch, full_iters=192,
                  repeats=3),
    )
}


def profile_benchmark(name: str, *, quick: bool = False):
    """One warmed, profiled repetition of a registered benchmark.

    Returns the :class:`cProfile.Profile` with the stats collected; the
    CLI dumps it to a ``.pstats`` file next to the benchmark artifact.
    The workload is built and warmed exactly like a timed run, so the
    profile reflects steady state (decode caches hot), not
    first-run setup.  Note that profiling overhead inflates call-heavy
    paths, so use the output for attribution, never for throughput.
    """
    import cProfile

    spec = BENCHMARKS.get(name)
    if spec is None:
        raise ConfigError(
            f"unknown benchmark {name!r}; known: {', '.join(BENCHMARKS)}"
        )
    workload = spec.factory(spec.iters(quick))
    workload()  # warm: same policy as timing.measure
    profiler = cProfile.Profile()
    profiler.enable()
    workload()
    profiler.disable()
    return profiler


def run_benchmarks(
    names: list[str] | None = None,
    *,
    quick: bool = False,
    progress: Callable[[str], None] | None = None,
) -> list[Measurement]:
    """Run the selected benchmarks (default: the full curated set)."""
    selected = list(BENCHMARKS) if not names else list(names)
    unknown = [name for name in selected if name not in BENCHMARKS]
    if unknown:
        raise ConfigError(
            f"unknown benchmark(s): {', '.join(sorted(unknown))}; "
            f"known: {', '.join(BENCHMARKS)}"
        )
    results = []
    for name in selected:
        spec = BENCHMARKS[name]
        if progress is not None:
            progress(name)
        workload = spec.factory(spec.iters(quick))
        results.append(
            measure(name, workload, unit=spec.unit, repeats=spec.repeats)
        )
    return results
