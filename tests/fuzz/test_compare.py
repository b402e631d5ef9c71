"""The shared architectural-state comparator (Rdpru exclusion rule)."""

from repro.cpu.isa import Alu, Halt, Load, MovImm, Rdpru
from repro.fuzz.compare import (
    compare_architectural,
    rdpru_destinations,
    written_registers,
)

PROGRAM = [
    MovImm("r0", 5),
    Rdpru("t0"),
    Alu("r1", "r0", "r0", "add"),
    Load("r2", base="r0"),
    Halt(),
]


def test_written_and_rdpru_registers():
    assert written_registers(PROGRAM) == {"r0", "t0", "r1", "r2"}
    assert rdpru_destinations(PROGRAM) == {"t0"}


def test_rdpru_destinations_excluded_centrally():
    # t0 differs wildly (timing), everything else matches: no divergence.
    a = {"r0": 5, "r1": 10, "r2": 7, "t0": 123456}
    b = {"r0": 5, "r1": 10, "r2": 7, "t0": 42}
    assert compare_architectural(PROGRAM, a, b) is None


def test_real_register_difference_reported():
    a = {"r0": 5, "r1": 10, "r2": 7, "t0": 1}
    b = {"r0": 5, "r1": 11, "r2": 7, "t0": 1}
    divergence = compare_architectural(PROGRAM, a, b)
    assert divergence is not None
    assert divergence.registers == {"r1": (10, 11)}
    assert "r1" in divergence.describe()


def test_memory_difference_reported():
    regs = {"r0": 5, "r1": 10, "r2": 7}
    divergence = compare_architectural(
        PROGRAM, regs, dict(regs), mem_a=b"\x00" * 16, mem_b=b"\x00" * 15 + b"\x01"
    )
    assert divergence is not None
    assert divergence.memory_diff_bytes == 1
    assert divergence.memory_offsets == (15,)


def test_outcome_difference_reported():
    regs = {"r0": 5, "r1": 10, "r2": 7}
    divergence = compare_architectural(
        PROGRAM, regs, dict(regs), outcome_a="ok", outcome_b="fault:oops"
    )
    assert divergence is not None
    assert divergence.outcomes == ("ok", "fault:oops")


def test_identical_failures_are_not_divergent():
    divergence = compare_architectural(
        PROGRAM, {}, {}, outcome_a="limit", outcome_b="limit"
    )
    assert divergence is None


def test_identical_faults_still_compare_memory():
    # The stores older than a fault must reach memory in both executors.
    divergence = compare_architectural(
        PROGRAM, {"r1": 1}, {"r1": 2}, mem_a=b"\x07\x00", mem_b=b"\x00\x00",
        outcome_a="fault:x", outcome_b="fault:x",
    )
    assert divergence is not None
    assert divergence.memory_offsets == (0,)
    assert divergence.registers == {}


def test_tracked_override_narrows_comparison():
    a = {"r0": 5, "r1": 10}
    b = {"r0": 5, "r1": 999}
    assert compare_architectural(PROGRAM, a, b, tracked=["r0"]) is None
