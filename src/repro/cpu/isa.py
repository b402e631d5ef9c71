"""The micro-ISA interpreted by the simulated pipeline.

A :class:`Program` is an immutable tuple of instruction objects assembled
at a base instruction *virtual* address; each instruction occupies a
fixed number of bytes, so code sliding (placing the same code at
byte-granular offsets, Section III-C.2) is just a prefix of 1-byte
``Pad`` instructions.

The ISA is deliberately tiny — the paper's microbenchmarks and gadgets
need loads, stores, multiply/ALU chains (for address-generation delay),
``clflush``/``mfence``, ``rdpru`` and a conditional branch.  Registers
are named strings holding unsigned integers.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from functools import lru_cache

from repro.errors import ConfigError, InvalidInstruction

__all__ = [
    "Instruction",
    "MovImm",
    "Mov",
    "Alu",
    "AluImm",
    "Imul",
    "ImulImm",
    "Load",
    "Store",
    "Clflush",
    "Mfence",
    "Rdpru",
    "Jz",
    "Label",
    "Pad",
    "Halt",
    "Program",
    "DecodedProgram",
    "OP_LABEL",
    "OP_PAD",
    "OP_MOVIMM",
    "OP_MOV",
    "OP_ALU",
    "OP_ALUIMM",
    "OP_IMUL",
    "OP_IMULIMM",
    "OP_LOAD",
    "OP_STORE",
    "OP_CLFLUSH",
    "OP_MFENCE",
    "OP_RDPRU",
    "OP_JZ",
    "OP_HALT",
    "OP_UNKNOWN",
    "ALU_ADD",
    "ALU_SUB",
    "ALU_XOR",
    "ALU_AND",
    "ALU_OR",
    "ALU_BAD",
    "instruction_from_repr",
    "instructions_from_reprs",
    "DECODE_CACHE_SIZE",
]


@dataclass(frozen=True)
class Instruction:
    """Base class: every instruction has an encoded size in bytes."""

    @property
    def size(self) -> int:
        return 4


@dataclass(frozen=True)
class Pad(Instruction):
    """A 1-byte filler (nop) used for byte-granular code sliding."""

    @property
    def size(self) -> int:
        return 1


@dataclass(frozen=True)
class MovImm(Instruction):
    dst: str
    value: int


@dataclass(frozen=True)
class Mov(Instruction):
    dst: str
    src: str


@dataclass(frozen=True)
class Alu(Instruction):
    """1-cycle ALU op on two registers."""

    dst: str
    a: str
    b: str
    op: str = "add"  # add | sub | xor | and | or


@dataclass(frozen=True)
class AluImm(Instruction):
    dst: str
    src: str
    imm: int
    op: str = "add"


@dataclass(frozen=True)
class Imul(Instruction):
    """3-cycle multiply; chains of these delay address generation."""

    dst: str
    a: str
    b: str


@dataclass(frozen=True)
class ImulImm(Instruction):
    dst: str
    src: str
    imm: int


@dataclass(frozen=True)
class Load(Instruction):
    """``dst = mem[reg[base] + offset]`` (little-endian, ``size`` bytes)."""

    dst: str
    base: str
    offset: int = 0
    width: int = 8


@dataclass(frozen=True)
class Store(Instruction):
    """``mem[reg[base] + offset] = reg[src]`` (``width`` bytes)."""

    base: str
    src: str
    offset: int = 0
    width: int = 8


@dataclass(frozen=True)
class Clflush(Instruction):
    base: str
    offset: int = 0


@dataclass(frozen=True)
class Mfence(Instruction):
    """Serialize: resolve and commit every pending store."""


@dataclass(frozen=True)
class Rdpru(Instruction):
    """Read the cycle counter into ``dst`` (the paper's timing primitive)."""

    dst: str


@dataclass(frozen=True)
class Jz(Instruction):
    """Branch to ``label`` when ``reg[cond] == 0`` (predicted, trainable)."""

    cond: str
    label: str


@dataclass(frozen=True)
class Label(Instruction):
    """A named position; occupies no bytes."""

    name: str

    @property
    def size(self) -> int:
        return 0


@dataclass(frozen=True)
class Halt(Instruction):
    """Stop execution (end of the measured routine)."""


def _instruction_namespace() -> dict[str, type]:
    return {
        cls.__name__: cls
        for cls in (
            Instruction, Pad, MovImm, Mov, Alu, AluImm, Imul, ImulImm,
            Load, Store, Clflush, Mfence, Rdpru, Jz, Label, Halt,
        )
    }


def instruction_from_repr(text: str) -> Instruction:
    """Rebuild one instruction from its dataclass ``repr``.

    Findings artifacts store minimized reproducers as instruction reprs
    (:func:`repro.fuzz.shrink.shrink_report`); this is the inverse, used
    to replay a shrunk program — e.g. ``repro-fuzz --trace-findings``.
    Evaluation is restricted to the instruction classes themselves (no
    builtins), so only literal dataclass constructions parse.  Raises
    :class:`repro.errors.InvalidInstruction` on anything else.
    """
    try:
        value = eval(text, {"__builtins__": {}}, _instruction_namespace())
    except Exception as exc:
        raise InvalidInstruction(f"unparseable instruction repr {text!r}: {exc}") from exc
    if not isinstance(value, Instruction):
        raise InvalidInstruction(
            f"repr {text!r} is not an instruction (got {type(value).__name__})"
        )
    return value


def instructions_from_reprs(reprs: list[str]) -> list[Instruction]:
    """Rebuild a whole program from a list of instruction reprs."""
    return [instruction_from_repr(text) for text in reprs]


# ----------------------------------------------------------------------
# Dense decoded form
# ----------------------------------------------------------------------
# Integer opcodes for the interpreter's dispatch (one per instruction
# class).  The pipeline compares these instead of running an isinstance
# chain — the single hottest comparison in the simulator.
(
    OP_LABEL,
    OP_PAD,
    OP_MOVIMM,
    OP_MOV,
    OP_ALU,
    OP_ALUIMM,
    OP_IMUL,
    OP_IMULIMM,
    OP_LOAD,
    OP_STORE,
    OP_CLFLUSH,
    OP_MFENCE,
    OP_RDPRU,
    OP_JZ,
    OP_HALT,
    OP_UNKNOWN,
) = range(16)

#: ALU sub-opcodes; ``ALU_BAD`` marks an op string the decoder does not
#: know.  The error is deliberately deferred to *execution* of that
#: instruction (matching the un-decoded interpreter), so decoding never
#: rejects a program whose bad instruction is unreachable.
ALU_ADD, ALU_SUB, ALU_XOR, ALU_AND, ALU_OR, ALU_BAD = range(6)

_ALU_CODES = {
    "add": ALU_ADD,
    "sub": ALU_SUB,
    "xor": ALU_XOR,
    "and": ALU_AND,
    "or": ALU_OR,
}

_OPCODES: dict[type, int] = {
    Label: OP_LABEL,
    Pad: OP_PAD,
    MovImm: OP_MOVIMM,
    Mov: OP_MOV,
    Alu: OP_ALU,
    AluImm: OP_ALUIMM,
    Imul: OP_IMUL,
    ImulImm: OP_IMULIMM,
    Load: OP_LOAD,
    Store: OP_STORE,
    Clflush: OP_CLFLUSH,
    Mfence: OP_MFENCE,
    Rdpru: OP_RDPRU,
    Jz: OP_JZ,
    Halt: OP_HALT,
}


@dataclass(frozen=True, slots=True)
class DecodedProgram:
    """The base-independent layout and dense decoded form of one
    instruction sequence.

    Built once per distinct sequence (see :func:`_decode`) and shared by
    every :class:`Program` around it, relocated copies included: code
    sliding (Section III-C) places one template at thousands of bases,
    and each copy owns nothing but its base.  The pipeline reuses it
    across the thousands of repeated runs an experiment performs.  All
    tuples are indexed by instruction position:

    * ``insts[i]`` — the instruction object (error messages);
    * ``offsets[i]`` — the byte offset from the program's base, so the
      instruction virtual address is ``program.base_iva + offsets[i]``;
    * ``ops[i]`` — the ``OP_*`` integer opcode;
    * ``args[i]`` — a per-opcode operand tuple (see :func:`_decode_args`);
    * ``names[i]`` — the instruction class name (trace events);
    * ``chain[i]`` — the length of the run of identical
      ``ImulImm(r, r, 1)`` delay links starting at ``i`` (0 when ``i`` is
      not such a link), so the pipeline can dispatch the rest of a delay
      chain in one step from wherever execution enters it.

    ``labels`` maps each label name to its instruction index and
    ``byte_size`` is the encoded length.  The form carries no execution
    state, so concurrent interpreter states (SMT) share it safely.
    """

    insts: tuple[Instruction, ...]
    offsets: tuple[int, ...]
    labels: dict[str, int]
    byte_size: int
    ops: tuple[int, ...]
    args: tuple[tuple, ...]
    names: tuple[str, ...]
    chain: tuple[int, ...]


# Campaign workloads rebuild Program objects around sequences the
# process has seen before (every fuzz task, corpus replay and oracle
# fill), so decoded forms are shared across fresh instances through a
# bounded LRU keyed by the instruction tuple (frozen instruction
# dataclasses hash by value).  The bound matters: a long campaign cycles
# thousands of distinct generated programs through one warm worker, and
# an unbounded map would pin every one of them forever.

#: Bound on the decoded-form LRU (distinct instruction sequences).
DECODE_CACHE_SIZE = 512


def _decode_args(instruction: Instruction, labels: dict[str, int]) -> tuple:
    """Operand tuple for one instruction (layouts per opcode).

    ``Jz`` targets resolve to an instruction index here; an unknown label
    decodes to ``None`` and raises only if the branch actually executes —
    identical to the lazy lookup the un-decoded interpreter performed.
    Unknown ALU op strings decode to ``ALU_BAD`` the same way.
    """
    cls = type(instruction)
    if cls is MovImm:
        return (instruction.dst, instruction.value)
    if cls is Mov:
        return (instruction.dst, instruction.src)
    if cls is Alu:
        return (
            instruction.dst,
            instruction.a,
            instruction.b,
            _ALU_CODES.get(instruction.op, ALU_BAD),
            instruction.op,
        )
    if cls is AluImm:
        return (
            instruction.dst,
            instruction.src,
            instruction.imm,
            _ALU_CODES.get(instruction.op, ALU_BAD),
            instruction.op,
        )
    if cls is Imul:
        return (instruction.dst, instruction.a, instruction.b)
    if cls is ImulImm:
        return (instruction.dst, instruction.src, instruction.imm)
    if cls is Load:
        return (instruction.dst, instruction.base, instruction.offset, instruction.width)
    if cls is Store:
        return (instruction.base, instruction.src, instruction.offset, instruction.width)
    if cls is Clflush:
        return (instruction.base, instruction.offset)
    if cls is Rdpru:
        return (instruction.dst,)
    if cls is Jz:
        return (instruction.cond, labels.get(instruction.label), instruction.label)
    return ()


@lru_cache(maxsize=DECODE_CACHE_SIZE)
def _decode(insts: tuple[Instruction, ...]) -> DecodedProgram:
    """Lay out and decode one instruction sequence (shared via the LRU)."""
    offsets = []
    labels: dict[str, int] = {}
    cursor = 0
    for index, instruction in enumerate(insts):
        offsets.append(cursor)
        if isinstance(instruction, Label):
            if instruction.name in labels:
                raise ConfigError(f"duplicate label {instruction.name!r}")
            labels[instruction.name] = index
        cursor += instruction.size
    ops = tuple(_OPCODES.get(type(i), OP_UNKNOWN) for i in insts)
    args = tuple(_decode_args(i, labels) for i in insts)
    # Delay-chain run lengths, scanned backwards: a link extends the
    # run behind it only when the two operand tuples are identical.
    chain = [0] * len(ops)
    for i in range(len(ops) - 1, -1, -1):
        if ops[i] != OP_IMULIMM:
            continue
        dst, src, imm = args[i]
        if dst == src and type(imm) is int and imm == 1:
            same = i + 1 < len(ops) and args[i + 1] == args[i]
            chain[i] = chain[i + 1] + 1 if same else 1
    return DecodedProgram(
        insts,
        tuple(offsets),
        labels,
        cursor,
        ops,
        args,
        tuple(type(i).__name__ for i in insts),
        tuple(chain),
    )


@dataclass(frozen=True)
class Program:
    """An assembled, immutable instruction sequence at a base address.

    ``base_iva`` is where the first instruction lives in the owning
    process's address space; each instruction's IVA follows from the
    encoded sizes.  The pipeline translates IVAs to IPAs through the page
    tables, so physical placement — what the predictors actually hash —
    is controlled by the kernel's frame allocator.

    ``instructions`` is stored as a tuple and no field can be assigned
    after construction, so the layout and decoded form are derived once,
    at construction, and stay valid.  Another sequence is another
    ``Program``; another base is :meth:`relocate`.  A duplicate label
    raises :class:`repro.errors.ConfigError` at construction.
    """

    instructions: tuple[Instruction, ...]
    base_iva: int = 0
    name: str = "program"
    _decoded: DecodedProgram = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        instructions = tuple(self.instructions)
        object.__setattr__(self, "instructions", instructions)
        object.__setattr__(self, "_decoded", _decode(instructions))

    def relocate(self, base_iva: int) -> "Program":
        """This program laid out at a different base address.

        The copy shares this program's instruction tuple and decoded
        form, so it is neither laid out nor decoded again.
        """
        # Bypass __init__: it would hash the whole tuple for the LRU,
        # a Python call per instruction.
        copy = object.__new__(Program)
        vars(copy).update(vars(self), base_iva=base_iva)
        return copy

    def decoded(self) -> DecodedProgram:
        """The shared layout and dense decoded form (built at construction)."""
        return self._decoded

    def iva(self, index: int) -> int:
        """Instruction virtual address of the instruction at ``index``."""
        return self.base_iva + self._decoded.offsets[index]

    def label_index(self, name: str) -> int:
        try:
            return self._decoded.labels[name]
        except KeyError:
            raise InvalidInstruction(f"unknown label {name!r}") from None

    @property
    def fault_handler(self) -> "int | None":
        """Index of the ``fault_handler`` label, where a faulting
        program resumes architecturally, or None if it has none."""
        return self._decoded.labels.get("fault_handler")

    @property
    def byte_size(self) -> int:
        return self._decoded.byte_size

    def encode(self) -> bytes:
        """Synthetic machine code: a stable byte pattern per instruction.

        The bytes have no semantics (the pipeline interprets the objects),
        but they make code pages real: fork/COW copies them, and the code
        sliding experiments can fill pages with them the way the paper
        fills pages with stld machine code.
        """
        blob = bytearray()
        for instruction in self.instructions:
            digest = zlib.crc32(type(instruction).__name__.encode())
            blob += bytes([(digest & 0xFF) or 0x90] * instruction.size)
        return bytes(blob)

    def __len__(self) -> int:
        return len(self.instructions)
