"""Co-runner workload generation: seeded memory-op bursts.

A burst is a short program of loads/stores/store-to-load pairs over the
co-runner's private buffer.  Loads and stores displace shared cache
lines (the cache is keyed by physical address, and the co-runner's
frames are randomly placed, so its working set lands across sets);
store-to-load pairs additionally exercise the co-runner thread's own
predictors — and, when the burst runs on the *same* hardware thread
(the preemption path), they charge SSBP counters and occupy PSFP/SSBP
entries the victim thread's protocols rely on.
"""

from __future__ import annotations

import random

from repro.cpu.isa import Halt, Instruction, Load, MovImm, Program, Store

__all__ = ["CORUNNER_MIXES", "BURST_BUFFER_PAGES", "build_burst"]

#: Pages of private buffer each co-runner/interloper process maps.
BURST_BUFFER_PAGES = 16

#: Burst compositions: (load weight, store weight, stld-pair weight).
CORUNNER_MIXES: dict[str, tuple[int, int, int]] = {
    "loads": (1, 0, 0),
    "stores": (0, 1, 0),
    "mixed": (2, 1, 1),
    "stld": (0, 0, 1),
}


def build_burst(rng: random.Random, ops: int, mix: str) -> Program:
    """One seeded burst program of ``ops`` memory operations.

    Offsets are drawn uniformly over the buffer at line granularity;
    the caller supplies ``buf`` (the buffer base VA) in registers.  An
    stld pair counts as one operation (one store immediately consumed
    by an aliasing load — the pattern that drives predictor training).
    """
    try:
        weights = CORUNNER_MIXES[mix]
    except KeyError:
        raise ValueError(
            f"unknown co-runner mix {mix!r} (know {', '.join(CORUNNER_MIXES)})"
        ) from None
    span = BURST_BUFFER_PAGES * 4096 - 64
    kinds = rng.choices(("load", "store", "stld"), weights=weights, k=max(0, ops))
    instructions: list[Instruction] = [MovImm("v", 0x5A)]
    for kind in kinds:
        offset = rng.randrange(0, span, 64)
        if kind == "load":
            instructions.append(Load("t", base="buf", offset=offset))
        elif kind == "store":
            instructions.append(Store(base="buf", src="v", offset=offset))
        else:
            instructions.append(Store(base="buf", src="v", offset=offset))
            instructions.append(Load("t", base="buf", offset=offset))
    instructions.append(Halt())
    return Program(instructions, name=f"corunner-{mix}")
