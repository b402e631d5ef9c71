"""The prefilter's economic argument: scanning beats executing by >=10x.

This test pins the ratio as a contract on the exact workload the
prefilter replaces — the generated programs a fuzz campaign would
otherwise run through the dynamic two-fill oracle.
"""

import time

from repro.fuzz.gen import build_program
from repro.fuzz.oracle import leak_check_instructions
from repro.static.gadgets import scan_program

SEEDS = (1001, 1002, 1003, 1004)
BLOCKS = 8
#: Timed sweeps per side, interleaved so both sides sample the same
#: host conditions.  The best sweep is the cost of the work itself; a
#: host stall inside one ~2 ms scan window inflates only that sample.
REPEATS = 7


def _elapsed(sweep) -> float:
    start = time.perf_counter()
    sweep()
    return time.perf_counter() - start


def test_scanner_at_least_10x_faster_than_the_dynamic_oracle():
    programs = [build_program("fuzz-v1", seed, BLOCKS) for seed in SEEDS]

    # Warm both paths once so import/JIT-ish one-time costs don't skew
    # either side of the ratio.
    scan_program(programs[0])
    leak_check_instructions(programs[0], seed=SEEDS[0])

    def scan_all():
        for instructions in programs:
            scan_program(instructions)

    def execute_all():
        for seed, instructions in zip(SEEDS, programs):
            leak_check_instructions(instructions, seed=seed)

    static_elapsed = dynamic_elapsed = float("inf")
    for _ in range(REPEATS):
        static_elapsed = min(static_elapsed, _elapsed(scan_all))
        dynamic_elapsed = min(dynamic_elapsed, _elapsed(execute_all))

    assert static_elapsed > 0
    ratio = dynamic_elapsed / static_elapsed
    assert ratio >= 10, (
        f"static scan only {ratio:.1f}x faster than dynamic execution "
        f"(best of {REPEATS}: {static_elapsed * 1e3:.2f}ms vs "
        f"{dynamic_elapsed * 1e3:.2f}ms for {len(programs)} programs)"
    )
