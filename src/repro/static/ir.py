"""Lifting the micro-ISA into a small dataflow IR.

What the static passes know about each instruction class — its node
kind and which of its fields name the registers it defines, uses and
addresses through — lives in one table, :data:`OPS`.  A lifted program,
:class:`IRProgram`, indexes the instructions by what the later passes
look for — loads, stores, branches, fences and label positions — and
presents each instruction as an :class:`IRNode` of those facts.  Window
enumeration and gadget classification work over node indices.  Nodes
are built on first access: the taint pass, which visits every
instruction, reads the instructions directly, so a scan builds only the
few nodes its findings cite.  The taint pass's per-class rules must
read and write exactly the registers :data:`OPS` names; a test walks
every instruction class to hold them to it.  The lift accepts the same
inputs the rest of the repo passes around: a plain instruction list or
a :class:`~repro.cpu.isa.Program`.

The IR is purely syntactic — no execution, no machine — which is what
makes a scan thousands of times cheaper than a pipeline run.  Branch
targets are resolved through the program's labels; a ``Jz`` naming an
unknown label keeps ``target=None`` and the window pass treats its
transient span as reaching the end of the program (the conservative
choice, mirroring the interpreter's lazy label lookup).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.cpu.isa import (
    Alu,
    AluImm,
    Clflush,
    Halt,
    Imul,
    ImulImm,
    Instruction,
    Jz,
    Label,
    Load,
    Mfence,
    Mov,
    MovImm,
    Program,
    Rdpru,
    Store,
)

__all__ = ["KINDS", "OPS", "IRNode", "IRProgram", "OpInfo", "lift"]

#: Node kinds, in no particular order.  ``alu`` covers every pure
#: register computation (Mov/MovImm/Alu/AluImm/Imul/ImulImm); ``timer``
#: is ``Rdpru`` (reads the clock, never the secret); ``nop`` covers
#: ``Label``/``Pad``/unknown instructions.
KINDS = ("alu", "load", "store", "flush", "fence", "branch", "timer", "halt", "nop")


@dataclass(frozen=True)
class IRNode:
    """Dataflow facts for one instruction."""

    index: int
    op: str                       # instruction class name
    kind: str                     # one of KINDS
    defs: tuple[str, ...]         # registers written
    uses: tuple[str, ...]         # registers read
    base: str | None = None      # address base register (load/store/flush)
    offset: int = 0              # constant address offset
    width: int = 0               # access width in bytes
    target: int | None = None    # branch target node index (Jz, resolved)
    source: str = ""             # the instruction's dataclass repr
    alu_op: str = ""             # ALU operator string (Alu/AluImm)
    imm: int | None = None       # immediate operand (MovImm/AluImm/ImulImm)

    def __str__(self) -> str:
        return f"[{self.index:3d}] {self.source}"


class OpInfo(NamedTuple):
    """What the static passes know about one instruction class.

    The register facts are field *names*: ``defs``/``uses`` name the
    fields holding the registers written/read, ``base`` the field
    holding the address base register of a memory operation (whose
    ``offset`` and, for loads and stores, ``width`` fields complete the
    address), ``imm`` the field holding the immediate operand.
    """

    kind: str                     # one of KINDS
    defs: tuple[str, ...] = ()
    uses: tuple[str, ...] = ()
    base: str | None = None
    imm: str | None = None


#: The micro-ISA as the static passes see it.  A class not listed
#: (``Label``, ``Pad``, a bare ``Instruction``) is a ``nop``: no dataflow.
OPS: dict[type[Instruction], OpInfo] = {
    MovImm: OpInfo("alu", defs=("dst",), imm="value"),
    Mov: OpInfo("alu", defs=("dst",), uses=("src",)),
    Alu: OpInfo("alu", defs=("dst",), uses=("a", "b")),
    AluImm: OpInfo("alu", defs=("dst",), uses=("src",), imm="imm"),
    Imul: OpInfo("alu", defs=("dst",), uses=("a", "b")),
    ImulImm: OpInfo("alu", defs=("dst",), uses=("src",), imm="imm"),
    Load: OpInfo("load", defs=("dst",), uses=("base",), base="base"),
    Store: OpInfo("store", uses=("base", "src"), base="base"),
    Clflush: OpInfo("flush", uses=("base",), base="base"),
    Mfence: OpInfo("fence"),
    Rdpru: OpInfo("timer", defs=("dst",)),
    Jz: OpInfo("branch", uses=("cond",)),
    Halt: OpInfo("halt"),
}

_NOP = OpInfo("nop")

#: The classes whose positions :class:`IRProgram` tables, by kind.
_INDEXED = {
    cls: info.kind
    for cls, info in OPS.items()
    if info.kind in ("load", "store", "branch", "fence")
}


class IRProgram:
    """A lifted program: the instructions plus derived lookup tables.

    ``loads``/``stores``/``branches``/``fences`` hold node indices in
    program order; ``labels`` maps a label name to its position (the
    last one, when a name repeats).  Lifting is one pass that looks up
    each instruction's kind; nodes and reprs are built on first access
    and kept.
    """

    def __init__(self, instructions: list[Instruction]) -> None:
        self.instructions = instructions
        self.labels: dict[str, int] = {}
        positions: dict[str, list[int]] = {
            "load": [], "store": [], "branch": [], "fence": [],
        }
        for index, instruction in enumerate(instructions):
            cls = type(instruction)
            if cls in _INDEXED:
                positions[_INDEXED[cls]].append(index)
            elif cls is Label:
                self.labels[instruction.name] = index
        self.loads = tuple(positions["load"])
        self.stores = tuple(positions["store"])
        self.branches = tuple(positions["branch"])
        self.fences = tuple(positions["fence"])
        self._nodes: dict[int, IRNode] = {}
        self._reprs: dict[int, str] = {}

    @property
    def nodes(self) -> list[IRNode]:
        """Every node, in program order (a new list; the nodes are kept)."""
        return [self[index] for index in range(len(self.instructions))]

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self):
        return iter(self.nodes)

    def __getitem__(self, index: int) -> IRNode:
        if index < 0:
            index += len(self.instructions)
        node = self._nodes.get(index)
        if node is None:
            node = _lift_one(index, self.instructions[index], self.labels)
            self._nodes[index] = node
        return node

    def reprs(self, indices: tuple[int, ...] | list[int]) -> tuple[str, ...]:
        """Instruction reprs for a set of node indices (finding spans)."""
        cache = self._reprs
        out = []
        for index in sorted(indices):
            text = cache.get(index)
            if text is None:
                text = cache[index] = repr(self.instructions[index])
            out.append(text)
        return tuple(out)


def _lift_one(index: int, instruction: Instruction, labels: dict[str, int]) -> IRNode:
    cls = type(instruction)
    info = OPS.get(cls, _NOP)
    memory = info.base is not None
    return IRNode(
        index,
        cls.__name__,
        info.kind,
        tuple(getattr(instruction, name) for name in info.defs),
        tuple(getattr(instruction, name) for name in info.uses),
        base=getattr(instruction, info.base) if memory else None,
        offset=instruction.offset if memory else 0,
        width=getattr(instruction, "width", 0) if memory else 0,
        target=labels.get(instruction.label) if info.kind == "branch" else None,
        source=repr(instruction),
        alu_op=getattr(instruction, "op", "") if info.kind == "alu" else "",
        imm=getattr(instruction, info.imm) if info.imm else None,
    )


def lift(program: Program | list[Instruction]) -> IRProgram:
    """Lift a program (or a bare instruction list) into an IR."""
    if isinstance(program, Program):
        return IRProgram(list(program.instructions))
    return IRProgram(list(program))
