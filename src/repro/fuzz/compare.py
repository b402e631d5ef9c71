"""The shared architectural state comparator.

Every consumer that compares two executions of the same program — the
differential tests, the dual-execution harness, the leakage oracle —
goes through :func:`compare_architectural`, which owns the one semantic
rule that used to be a per-caller convention: **``Rdpru`` destination
registers are excluded** (the reference interpreter writes 0 where the
pipeline writes a cycle count; timing is not architectural state).

A mismatch is returned as a :class:`Divergence` value rather than raised,
so callers can render, serialize (findings JSONL) or shrink against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.cpu.isa import (
    Alu,
    AluImm,
    Imul,
    ImulImm,
    Instruction,
    Load,
    Mov,
    MovImm,
    Rdpru,
)
from repro.fuzz.gen import REGS

__all__ = [
    "Divergence",
    "compare_architectural",
    "rdpru_destinations",
    "written_registers",
]

#: How many differing memory offsets a Divergence records at most.
_MAX_MEMORY_DIFFS = 16


def rdpru_destinations(instructions: Sequence[Instruction]) -> frozenset[str]:
    """Registers written by any ``Rdpru`` in the program (never compared)."""
    return frozenset(
        instruction.dst
        for instruction in instructions
        if isinstance(instruction, Rdpru)
    )


def written_registers(instructions: Sequence[Instruction]) -> frozenset[str]:
    """Every register the program writes (the widest comparable set)."""
    written: set[str] = set()
    for instruction in instructions:
        if isinstance(instruction, (MovImm, Mov, Alu, AluImm, Imul, ImulImm, Load, Rdpru)):
            written.add(instruction.dst)
    return frozenset(written)


@dataclass(frozen=True)
class Divergence:
    """One architectural disagreement between two executions."""

    #: register -> (value in run A, value in run B); missing reads as 0.
    registers: dict[str, tuple[int, int]] = field(default_factory=dict)
    #: First differing byte offsets of the compared memory regions.
    memory_offsets: tuple[int, ...] = ()
    #: Total number of differing memory bytes (may exceed the recorded
    #: offsets above).
    memory_diff_bytes: int = 0
    #: Set when the two runs finished differently (ok / fault / limit).
    outcomes: tuple[str, str] | None = None

    def __bool__(self) -> bool:  # a Divergence is always a real mismatch
        return True

    def describe(self) -> str:
        parts = []
        if self.outcomes is not None:
            parts.append(f"outcomes differ: {self.outcomes[0]} vs {self.outcomes[1]}")
        for name in sorted(self.registers):
            a, b = self.registers[name]
            parts.append(f"{name}: {a:#x} vs {b:#x}")
        if self.memory_diff_bytes:
            offs = ", ".join(f"{off:#x}" for off in self.memory_offsets)
            parts.append(
                f"memory differs at {self.memory_diff_bytes} byte(s) "
                f"(first offsets: {offs})"
            )
        return "; ".join(parts) or "empty divergence"

    def to_detail(self) -> dict:
        """JSON-ready form for findings artifacts."""
        detail: dict = {}
        if self.outcomes is not None:
            detail["outcomes"] = list(self.outcomes)
        if self.registers:
            detail["registers"] = {
                name: [a, b] for name, (a, b) in sorted(self.registers.items())
            }
        if self.memory_diff_bytes:
            detail["memory_offsets"] = list(self.memory_offsets)
            detail["memory_diff_bytes"] = self.memory_diff_bytes
        return detail


def compare_architectural(
    instructions: Sequence[Instruction],
    regs_a: dict[str, int],
    regs_b: dict[str, int],
    mem_a: bytes | None = None,
    mem_b: bytes | None = None,
    tracked: Iterable[str] | None = None,
    outcome_a: str = "ok",
    outcome_b: str = "ok",
) -> Divergence | None:
    """Compare two executions' architectural state; None when identical.

    ``tracked`` selects the registers to compare (default: the generator
    result registers ``r0..r3``); ``Rdpru`` destinations found in
    ``instructions`` are always removed from it.  Memory regions are
    compared byte-wise when both are given.  Mismatched outcomes (one run
    faulted, the other completed) are themselves a divergence.  When both
    runs end in the same fault or limit, memory is still compared but
    registers are not: a stopped run's registers are not its architectural
    state at the faulting instruction.
    """
    excluded = rdpru_destinations(instructions)
    names = sorted(set(tracked if tracked is not None else REGS) - excluded)

    if outcome_a != outcome_b:
        return Divergence(outcomes=(outcome_a, outcome_b))
    if outcome_a != "ok":
        names = []

    registers = {
        name: (regs_a.get(name, 0), regs_b.get(name, 0))
        for name in names
        if regs_a.get(name, 0) != regs_b.get(name, 0)
    }
    memory_offsets: tuple[int, ...] = ()
    memory_diff_bytes = 0
    if mem_a is not None and mem_b is not None and mem_a != mem_b:
        diffs = [
            off
            for off, (byte_a, byte_b) in enumerate(zip(mem_a, mem_b))
            if byte_a != byte_b
        ]
        if len(mem_a) != len(mem_b):
            diffs.append(min(len(mem_a), len(mem_b)))
        memory_diff_bytes = len(diffs)
        memory_offsets = tuple(diffs[:_MAX_MEMORY_DIFFS])

    if not registers and not memory_diff_bytes:
        return None
    return Divergence(
        registers=registers,
        memory_offsets=memory_offsets,
        memory_diff_bytes=memory_diff_bytes,
    )
