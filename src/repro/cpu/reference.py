"""A non-speculative reference interpreter (differential-testing oracle).

Executes programs strictly in order with no store queue, no predictors,
no transient windows — the architectural semantics and nothing else.
The speculative pipeline must agree with this interpreter on every
architectural outcome (registers and memory) for every program: whatever
the predictors guessed, squashes must have repaired it.  The
property-based differential tests in ``tests/cpu/test_differential.py``
drive random programs through both.

Timing is deliberately absent: ``Rdpru`` writes 0 here; the shared state
comparator (:func:`repro.fuzz.compare.compare_architectural`) excludes
``Rdpru`` destination registers from every comparison, so no caller has
to remember the rule.
"""

from __future__ import annotations

from repro.cpu.isa import (
    Alu,
    AluImm,
    Clflush,
    Halt,
    Imul,
    ImulImm,
    Jz,
    Label,
    Load,
    Mfence,
    Mov,
    MovImm,
    Pad,
    Program,
    Rdpru,
    Store,
)
from repro.errors import InvalidInstruction, SegmentationFault, SimulationLimitExceeded
from repro.osm.address_space import Perm
from repro.osm.kernel import Kernel
from repro.osm.process import Process

__all__ = ["ReferenceInterpreter"]

_U64 = (1 << 64) - 1


class ReferenceInterpreter:
    """In-order, non-speculative execution of the micro-ISA."""

    def __init__(self, kernel: Kernel, process: Process) -> None:
        self.kernel = kernel
        self.process = process

    def run(
        self,
        program: Program,
        regs: dict[str, int] | None = None,
        max_steps: int = 200_000,
    ) -> dict[str, int]:
        """Execute to completion; returns the final register file.

        Faults behave architecturally: jump to ``fault_handler`` if the
        program defines it, raise otherwise.
        """
        registers = dict(regs or {})
        index = 0
        steps = 0
        while index < len(program):
            steps += 1
            if steps > max_steps:
                raise SimulationLimitExceeded(
                    f"reference run of {program.name!r} exceeded {max_steps} steps"
                )
            instruction = program.instructions[index]
            index += 1
            if isinstance(instruction, (Label, Pad, Mfence, Clflush)):
                continue
            if isinstance(instruction, Halt):
                break
            if isinstance(instruction, MovImm):
                registers[instruction.dst] = instruction.value & _U64
            elif isinstance(instruction, Mov):
                registers[instruction.dst] = registers.get(instruction.src, 0)
            elif isinstance(instruction, Alu):
                registers[instruction.dst] = self._alu(
                    instruction.op,
                    registers.get(instruction.a, 0),
                    registers.get(instruction.b, 0),
                )
            elif isinstance(instruction, AluImm):
                registers[instruction.dst] = self._alu(
                    instruction.op, registers.get(instruction.src, 0), instruction.imm
                )
            elif isinstance(instruction, Imul):
                registers[instruction.dst] = (
                    registers.get(instruction.a, 0) * registers.get(instruction.b, 0)
                ) & _U64
            elif isinstance(instruction, ImulImm):
                registers[instruction.dst] = (
                    registers.get(instruction.src, 0) * instruction.imm
                ) & _U64
            elif isinstance(instruction, Rdpru):
                registers[instruction.dst] = 0
            elif isinstance(instruction, Load):
                vaddr = (registers.get(instruction.base, 0) + instruction.offset) & _U64
                try:
                    paddr = self.kernel.translate(self.process, vaddr, Perm.R)
                except SegmentationFault:
                    handler = program.fault_handler
                    if handler is None:
                        raise
                    index = handler
                    continue
                data = self.kernel.memory.read(paddr, instruction.width)
                registers[instruction.dst] = int.from_bytes(data, "little")
            elif isinstance(instruction, Store):
                vaddr = (registers.get(instruction.base, 0) + instruction.offset) & _U64
                paddr = self.kernel.translate(self.process, vaddr, Perm.W)
                value = registers.get(instruction.src, 0)
                self.kernel.memory.write(
                    paddr, value.to_bytes(8, "little")[: instruction.width]
                )
            elif isinstance(instruction, Jz):
                if registers.get(instruction.cond, 0) == 0:
                    index = program.label_index(instruction.label)
            else:
                raise InvalidInstruction(f"unhandled instruction {instruction!r}")
        return registers

    @staticmethod
    def _alu(op: str, a: int, b: int) -> int:
        if op == "add":
            return (a + b) & _U64
        if op == "sub":
            return (a - b) & _U64
        if op == "xor":
            return (a ^ b) & _U64
        if op == "and":
            return (a & b) & _U64
        if op == "or":
            return (a | b) & _U64
        raise InvalidInstruction(f"unknown ALU op {op!r}")
