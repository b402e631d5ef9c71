"""SPEC CPU 2017-like workloads for the SSBD overhead study (Fig 12).

The paper measures SSBD's cost on ten SPECrate benchmarks.  SSBD's cost
mechanism is specific: every load that would otherwise *bypass* an
unresolved older store must stall until the store's address generation —
so a benchmark's overhead is governed by how often its loads race
pending stores whose addresses resolve late, and how rarely those pairs
actually alias (aliasing pairs stall either way).

Each synthetic workload is an instruction mix characterized by:

* ``racing_loads`` — fraction of operations that are a delayed-store +
  load pair (the SSBD-sensitive pattern);
* ``aliasing`` — fraction of racing pairs that truly alias;
* ``agen_depth`` — multiply-chain length feeding store addresses
  (deeper chains mean longer SSBD stalls);
* ``footprint_pages`` — data working set (cache-miss-bound benchmarks
  amortize the stalls, shrinking relative overhead);
* ``alu_ratio`` — plain compute padding between memory operations.

The per-benchmark values are calibrated so the *shape* of Fig 12 holds:
``perlbench`` and ``exchange2`` (branchy, store-forward-heavy integer
codes) exceed 20% overhead, while memory-bound ``mcf``/``xz`` barely
notice SSBD.  Absolute percentages are simulation-scale, not silicon.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass

from repro.cpu.isa import (
    Alu,
    AluImm,
    Halt,
    ImulImm,
    Load,
    Mfence,
    Mov,
    MovImm,
    Program,
    Store,
)

__all__ = ["WorkloadSpec", "SPEC2017", "build_workload"]


@dataclass(frozen=True)
class WorkloadSpec:
    """Characterization of one SPECrate-like benchmark."""

    name: str
    racing_loads: float
    aliasing: float
    agen_depth: int
    footprint_pages: int
    alu_ratio: float

    def __post_init__(self) -> None:
        if not 0 <= self.racing_loads <= 1:
            raise ValueError("racing_loads is a fraction")
        if not 0 <= self.aliasing <= 1:
            raise ValueError("aliasing is a fraction")


#: The ten SPECrate benchmarks of Fig 12.
SPEC2017: dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec("perlbench", racing_loads=0.12, aliasing=0.02,
                     agen_depth=6, footprint_pages=8, alu_ratio=0.30),
        WorkloadSpec("gcc", racing_loads=0.10, aliasing=0.18,
                     agen_depth=5, footprint_pages=24, alu_ratio=0.40),
        WorkloadSpec("mcf", racing_loads=0.04, aliasing=0.25,
                     agen_depth=4, footprint_pages=128, alu_ratio=0.20),
        WorkloadSpec("omnetpp", racing_loads=0.09, aliasing=0.15,
                     agen_depth=5, footprint_pages=48, alu_ratio=0.35),
        WorkloadSpec("xalancbmk", racing_loads=0.10, aliasing=0.12,
                     agen_depth=4, footprint_pages=32, alu_ratio=0.35),
        WorkloadSpec("x264", racing_loads=0.07, aliasing=0.30,
                     agen_depth=5, footprint_pages=40, alu_ratio=0.50),
        WorkloadSpec("deepsjeng", racing_loads=0.07, aliasing=0.18,
                     agen_depth=4, footprint_pages=16, alu_ratio=0.45),
        WorkloadSpec("leela", racing_loads=0.08, aliasing=0.20,
                     agen_depth=4, footprint_pages=12, alu_ratio=0.50),
        WorkloadSpec("exchange2", racing_loads=0.26, aliasing=0.03,
                     agen_depth=7, footprint_pages=4, alu_ratio=0.35),
        WorkloadSpec("xz", racing_loads=0.05, aliasing=0.22,
                     agen_depth=4, footprint_pages=96, alu_ratio=0.30),
    )
}


def _pow2_mask(footprint_bytes: int) -> int:
    """Largest power-of-two window inside the footprint, 8-byte aligned."""
    window = 1
    while window * 2 <= footprint_bytes:
        window *= 2
    return (window - 1) & ~7


def prefill(kernel, process, base: int, pages: int, seed: int = 0) -> None:
    """Fill the workload's data region with pseudo-random pointers so the
    chase below visits a spread of addresses."""
    rng = random.Random(seed ^ 0x5EC0)
    payload = bytes(rng.randrange(256) for _ in range(pages * 4096))
    kernel.write(process, base, payload)


def build_workload(
    spec: WorkloadSpec,
    data_base: int,
    operations: int = 400,
    seed: int = 0,
) -> Program:
    """Emit a program realizing the spec's instruction mix.

    The SSBD-sensitive pattern is a pointer chase: each racing block's
    store address derives (through the AGEN multiply chain) from the
    previously loaded value, and the next load continues the chase — so
    a serialized load lengthens the program's critical path the way it
    would in store-forwarding-heavy integer code.  Compute padding uses
    independent registers (it models the OoO machine's ability to hide
    latency under parallel work).  A fence every 24 operations bounds
    store-queue pressure the way natural serialization points would.

    Call :func:`prefill` on the data region first.
    """
    # zlib.crc32 is stable across processes (str hash is randomized).
    rng = random.Random((zlib.crc32(spec.name.encode()) & 0xFFFF) * 65_537 + seed)
    footprint = spec.footprint_pages * 4096
    mask = _pow2_mask(footprint)
    instructions: list = [
        MovImm("base", data_base),
        MovImm("pv", rng.randrange(0, footprint, 8)),
        MovImm("acc", 1),
    ]

    for op_index in range(operations):
        roll = rng.random()
        if roll < spec.racing_loads:
            # Pointer-chase racing block: store address from the chased
            # value through the AGEN chain; the load continues the chase.
            instructions.append(AluImm("pt", "pv", mask, "and"))
            instructions.append(Alu("sa", "base", "pt", "add"))
            instructions.append(Mov("sd", "sa"))
            instructions.extend(
                ImulImm("sd", "sd", 1) for _ in range(spec.agen_depth)
            )
            instructions.append(Store(base="sd", src="pv", width=8))
            if rng.random() < spec.aliasing:
                instructions.append(Mov("la", "sa"))
            else:
                instructions.append(AluImm("pt2", "pv", 64 + 8 * op_index % 2048, "add"))
                instructions.append(AluImm("pt2", "pt2", mask, "and"))
                instructions.append(Alu("la", "base", "pt2", "add"))
            instructions.append(Load("pv", base="la", width=8))
        elif roll < spec.racing_loads + spec.alu_ratio:
            # Independent compute padding (no serial chain).
            scratch = f"t{op_index % 6}"
            instructions.append(AluImm(scratch, "base", op_index, "add"))
            instructions.append(ImulImm(scratch, scratch, 3))
        else:
            # Plain streaming access at a static offset.
            offset = rng.randrange(0, footprint - 8, 8)
            instructions.append(AluImm("la", "base", offset, "add"))
            if rng.random() < 0.4:
                instructions.append(Store(base="la", src="acc", width=8))
            else:
                instructions.append(Load("sv", base="la", width=8))
        if op_index % 24 == 23:
            instructions.append(Mfence())
    instructions.append(Halt())
    return Program(instructions, name=f"spec-{spec.name}")
