"""Fence insertion — the software countermeasure to store bypass.

Where SSBD flips a chicken bit (:mod:`repro.mitigations.ssbd`), a
compiler can instead serialize each store against younger loads by
emitting an ``mfence`` right after it: by the time any subsequent load
dispatches, every older store's address is resolved and committed, so
there is no unresolved store to race — the predictors are simply never
consulted.  This is the lfence/mfence hardening strategy SpecFuzz-style
tools validate, and the fuzzing harness (:mod:`repro.fuzz`) uses this
transform as its third mitigation configuration next to ``none`` and
``ssbd``.

The transform is purely architectural-neutral: ``Mfence`` is a no-op to
the reference interpreter, so a fenced program must produce the same
registers and memory as the original under both executors.
"""

from __future__ import annotations

from repro.cpu.isa import Instruction, Mfence, Store
from repro.errors import ConfigError

__all__ = ["fence_after_stores", "fence_after"]


def fence_after_stores(instructions: list[Instruction]) -> list[Instruction]:
    """Insert an ``Mfence`` after every ``Store`` (compiler hardening).

    Returns a new instruction list; the input is not modified.  Labels
    and branch targets are unaffected because fences are appended after
    stores, never between a label and the instruction it names.
    """
    fenced: list[Instruction] = []
    for instruction in instructions:
        fenced.append(instruction)
        if isinstance(instruction, Store):
            fenced.append(Mfence())
    return fenced


def fence_after(
    instructions: list[Instruction], indices: list[int] | tuple[int, ...]
) -> list[Instruction]:
    """Insert an ``Mfence`` after each of the given instruction indices.

    The targeted variant of :func:`fence_after_stores`, used by the
    static fence advisor (:mod:`repro.static.advisor`) to realize a
    *minimal* placement: only the positions that actually sever a
    gadget-carrying store→load bypass edge get a fence.  Indices refer
    to the input list; the returned list is new and the input is not
    modified.
    """
    positions = sorted(set(indices))
    if positions and not 0 <= positions[0] <= positions[-1] < len(instructions):
        raise ConfigError(
            f"fence indices out of range for a {len(instructions)}-instruction "
            f"program: {positions}"
        )
    fenced: list[Instruction] = []
    cursor = 0
    for index, instruction in enumerate(instructions):
        fenced.append(instruction)
        if cursor < len(positions) and positions[cursor] == index:
            fenced.append(Mfence())
            cursor += 1
    return fenced
