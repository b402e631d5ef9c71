"""Seeded, weighted program generators for the fuzzing subsystem.

Three generators, all pure functions of ``(rng, blocks)`` so a program
is reproducible from its ``(generator, seed, blocks)`` triple alone —
which is what the persistent corpus (:mod:`repro.fuzz.corpus`) stores:

* :func:`random_program` (``diff-v1``) — the original differential-test
  generator, moved here verbatim from ``tests/cpu/test_differential.py``
  so the pinned regression seeds keep building byte-identical programs;
* :func:`fuzz_program` (``fuzz-v1``) — the campaign generator: the same
  speculation-heavy racing pairs plus 4K-aliased store/load pairs,
  transmit gadgets, ``clflush``/``mfence`` spice and ``rdpru`` reads
  (which exercise the comparator's Rdpru-exclusion rule), with template
  selection driven by an explicit weight table;
* :func:`oracle_program` (``oracle-v1``) — the leakage-oracle generator:
  every tracked-register load is covered by a program-written store, so
  the *architectural* results are independent of the initial buffer
  contents; only transient paths (store bypass, wrong-path execution)
  can observe the buffer fill.  The oracle runs such a program under two
  different fills and flags any microarchitectural difference.
"""

from __future__ import annotations

import random
from typing import Callable

from repro.errors import ConfigError

from repro.cpu.isa import (
    Alu,
    AluImm,
    Clflush,
    Halt,
    ImulImm,
    Instruction,
    Jz,
    Label,
    Load,
    Mfence,
    Mov,
    MovImm,
    Rdpru,
    Store,
)

__all__ = [
    "BUF_PAGES",
    "BUF_BYTES",
    "REGS",
    "TSC_REG",
    "GENERATORS",
    "FUZZ_WEIGHTS",
    "ORACLE_WEIGHTS",
    "random_program",
    "fuzz_program",
    "oracle_program",
    "build_program",
    "derive_case",
    "parse_case",
]

#: Every generated program operates on one anonymous data buffer.
BUF_PAGES = 2
BUF_BYTES = BUF_PAGES * 4096

#: Architectural result registers the comparators track by default.
REGS = ["r0", "r1", "r2", "r3"]

#: Destination of generated ``Rdpru`` reads (timing — never comparable).
TSC_REG = "tsc"

#: Mask turning a loaded 64-bit value into an in-bounds 8-aligned offset.
_OFFSET_MASK = BUF_BYTES - 8


def random_program(rng: random.Random, blocks: int) -> list:
    """A random well-formed program over a data buffer.

    Addresses are always in-bounds (offsets are masked constants), and
    branches only jump forward, so every program terminates.
    """
    instructions: list = [MovImm(r, rng.randrange(1, 1 << 16)) for r in REGS]
    label_counter = 0
    for block in range(blocks):
        kind = rng.random()
        dst, a, b = (rng.choice(REGS) for _ in range(3))
        if kind < 0.25:
            instructions.append(
                Alu(dst, a, b, rng.choice(["add", "sub", "xor", "and", "or"]))
            )
            instructions.append(ImulImm(dst, dst, rng.choice([1, 3])))
        elif kind < 0.55:
            # A speculation-heavy racing pair: delayed store, racing load.
            store_off = rng.randrange(0, BUF_BYTES - 8, 8)
            load_off = (
                store_off if rng.random() < 0.5
                else rng.randrange(0, BUF_BYTES - 8, 8)
            )
            instructions.append(AluImm("sa", "buf", store_off, "add"))
            instructions.append(Mov("sd", "sa"))
            instructions.extend(
                ImulImm("sd", "sd", 1) for _ in range(rng.randrange(0, 24))
            )
            instructions.append(
                Store(base="sd", src=a, width=rng.choice([1, 8]))
            )
            instructions.append(AluImm("la", "buf", load_off, "add"))
            instructions.append(Load(dst, base="la", width=rng.choice([1, 8])))
        elif kind < 0.75:
            # Plain memory traffic.
            offset = rng.randrange(0, BUF_BYTES - 8, 8)
            instructions.append(AluImm("la", "buf", offset, "add"))
            if rng.random() < 0.5:
                instructions.append(Store(base="la", src=a, width=8))
            else:
                instructions.append(Load(dst, base="la", width=8))
        elif kind < 0.9:
            # A forward branch over some work (possibly mispredicted).
            label = f"skip{label_counter}"
            label_counter += 1
            cond = rng.choice(REGS)
            if rng.random() < 0.4:
                instructions.append(MovImm(cond, rng.choice([0, 1])))
            instructions.append(Jz(cond, label))
            instructions.append(AluImm(dst, a, 7, "add"))
            offset = rng.randrange(0, BUF_BYTES - 8, 8)
            instructions.append(AluImm("la", "buf", offset, "add"))
            instructions.append(Store(base="la", src=dst, width=8))
            instructions.append(Label(label))
        else:
            instructions.append(Mfence())
    instructions.append(Halt())
    return instructions


# ----------------------------------------------------------------------
# Shared template helpers
# ----------------------------------------------------------------------
class _GenState:
    """Mutable bookkeeping threaded through one program's templates."""

    def __init__(self) -> None:
        self.label_counter = 0
        #: Offsets unconditionally stored so far (oracle generator only):
        #: loads from these are architecturally fill-independent.
        self.written: list[int] = []

    def fresh_label(self) -> str:
        label = f"skip{self.label_counter}"
        self.label_counter += 1
        return label


def _racing_pair(
    rng: random.Random,
    out: list,
    store_off: int,
    load_off: int,
    load_dst: str,
    width: int = 8,
    min_chain: int = 0,
) -> None:
    """Delayed store at ``store_off`` racing a load at ``load_off``: the
    address-generation ``imul`` chain keeps the store unresolved when the
    load dispatches, so the predictors decide bypass/forward/stall."""
    out.append(AluImm("sa", "buf", store_off, "add"))
    out.append(Mov("sd", "sa"))
    out.extend(
        ImulImm("sd", "sd", 1) for _ in range(rng.randrange(min_chain, 24))
    )
    out.append(Store(base="sd", src=rng.choice(REGS), width=width))
    out.append(AluImm("la", "buf", load_off, "add"))
    out.append(Load(load_dst, base="la", width=width))


def _transmit_gadget(rng: random.Random, out: list, off: int) -> None:
    """The Spectre-STL transmit shape: a covered racing load whose value
    steers a dependent load's address.  Architecturally the loaded value
    is the (public) store data; a speculative bypass reads the *stale*
    buffer byte instead, and the dependent load then touches a cache line
    named by that secret.  All registers involved are scratch — tracked
    registers never see the (architecturally secret) ``tx`` value."""
    out.append(AluImm("sa", "buf", off, "add"))
    out.append(Mov("sd", "sa"))
    out.extend(ImulImm("sd", "sd", 1) for _ in range(rng.randrange(8, 20)))
    out.append(Store(base="sd", src=rng.choice(REGS), width=8))
    out.append(AluImm("la", "buf", off, "add"))
    out.append(Load("tv", base="la", width=8))
    out.append(AluImm("tm", "tv", _OFFSET_MASK, "and"))
    out.append(Alu("ta", "buf", "tm", "add"))
    out.append(Load("tx", base="ta", width=8))


# ----------------------------------------------------------------------
# Campaign generator (fuzz-v1)
# ----------------------------------------------------------------------
def _fuzz_alu(rng: random.Random, out: list, state: _GenState) -> None:
    dst, a, b = (rng.choice(REGS) for _ in range(3))
    out.append(Alu(dst, a, b, rng.choice(["add", "sub", "xor", "and", "or"])))
    out.append(ImulImm(dst, dst, rng.choice([1, 3])))


def _fuzz_stl(rng: random.Random, out: list, state: _GenState) -> None:
    store_off = rng.randrange(0, BUF_BYTES - 8, 8)
    load_off = (
        store_off if rng.random() < 0.5 else rng.randrange(0, BUF_BYTES - 8, 8)
    )
    _racing_pair(
        rng, out, store_off, load_off, rng.choice(REGS), width=rng.choice([1, 8])
    )


def _fuzz_alias4k(rng: random.Random, out: list, state: _GenState) -> None:
    # Same page offset, different page: the hashed-IPA/address predictor
    # structures see 4K-aliased pairs that are *not* true aliases.
    store_off = rng.randrange(0, 4096 - 8, 8)
    load_off = store_off if rng.random() < 0.3 else store_off + 4096
    _racing_pair(rng, out, store_off, load_off, rng.choice(REGS), min_chain=4)


def _fuzz_mem(rng: random.Random, out: list, state: _GenState) -> None:
    offset = rng.randrange(0, BUF_BYTES - 8, 8)
    out.append(AluImm("la", "buf", offset, "add"))
    if rng.random() < 0.5:
        out.append(Store(base="la", src=rng.choice(REGS), width=8))
    else:
        out.append(Load(rng.choice(REGS), base="la", width=8))


def _fuzz_branch(rng: random.Random, out: list, state: _GenState) -> None:
    label = state.fresh_label()
    cond = rng.choice(REGS)
    dst, a = rng.choice(REGS), rng.choice(REGS)
    if rng.random() < 0.4:
        out.append(MovImm(cond, rng.choice([0, 1])))
    out.append(Jz(cond, label))
    out.append(AluImm(dst, a, 7, "add"))
    offset = rng.randrange(0, BUF_BYTES - 8, 8)
    out.append(AluImm("la", "buf", offset, "add"))
    out.append(Store(base="la", src=dst, width=8))
    out.append(Label(label))


def _fuzz_fence(rng: random.Random, out: list, state: _GenState) -> None:
    if rng.random() < 0.5:
        out.append(Mfence())
    else:
        out.append(Clflush(base="buf", offset=rng.randrange(0, BUF_BYTES - 8, 8)))


def _fuzz_rdpru(rng: random.Random, out: list, state: _GenState) -> None:
    # Timing reads diverge between pipeline and reference by design; the
    # shared comparator excludes Rdpru destinations centrally.
    out.append(Rdpru(TSC_REG))


def _fuzz_transmit(rng: random.Random, out: list, state: _GenState) -> None:
    _transmit_gadget(rng, out, rng.randrange(0, BUF_BYTES - 8, 8))


_FUZZ_TEMPLATES: dict[str, Callable[[random.Random, list, _GenState], None]] = {
    "alu": _fuzz_alu,
    "stl": _fuzz_stl,
    "alias4k": _fuzz_alias4k,
    "mem": _fuzz_mem,
    "branch": _fuzz_branch,
    "fence": _fuzz_fence,
    "rdpru": _fuzz_rdpru,
    "transmit": _fuzz_transmit,
}

FUZZ_WEIGHTS: dict[str, int] = {
    "alu": 15,
    "stl": 25,
    "alias4k": 10,
    "mem": 15,
    "branch": 15,
    "fence": 7,
    "rdpru": 5,
    "transmit": 8,
}


def _weighted_program(
    rng: random.Random, blocks: int, weights: dict[str, int], templates: dict
) -> list:
    """Seed every register, then append ``blocks`` weighted template draws."""
    names = sorted(weights)
    weight_list = [weights[name] for name in names]
    instructions: list = [MovImm(r, rng.randrange(1, 1 << 16)) for r in REGS]
    state = _GenState()
    for _ in range(blocks):
        template = rng.choices(names, weights=weight_list, k=1)[0]
        templates[template](rng, instructions, state)
    instructions.append(Halt())
    return instructions


def fuzz_program(rng: random.Random, blocks: int) -> list:
    """The campaign-grade generator: weighted speculation-heavy templates."""
    return _weighted_program(rng, blocks, FUZZ_WEIGHTS, _FUZZ_TEMPLATES)


# ----------------------------------------------------------------------
# Oracle generator (oracle-v1)
# ----------------------------------------------------------------------
def _oracle_covered(rng: random.Random, out: list, state: _GenState) -> None:
    off = rng.randrange(0, BUF_BYTES - 8, 8)
    _racing_pair(rng, out, off, off, rng.choice(REGS), min_chain=4)
    if off not in state.written:
        state.written.append(off)


def _oracle_transmit(rng: random.Random, out: list, state: _GenState) -> None:
    off = rng.randrange(0, BUF_BYTES - 8, 8)
    _transmit_gadget(rng, out, off)
    if off not in state.written:
        state.written.append(off)


def _oracle_store(rng: random.Random, out: list, state: _GenState) -> None:
    off = rng.randrange(0, BUF_BYTES - 8, 8)
    out.append(AluImm("sa", "buf", off, "add"))
    out.append(Store(base="sa", src=rng.choice(REGS), width=8))
    if off not in state.written:
        state.written.append(off)


def _oracle_load(rng: random.Random, out: list, state: _GenState) -> None:
    # Only offsets the program has definitely written are architecturally
    # public; an unwritten offset would load the secret fill directly.
    if not state.written:
        _oracle_store(rng, out, state)
        return
    off = rng.choice(sorted(state.written))
    out.append(AluImm("la", "buf", off, "add"))
    out.append(Load(rng.choice(REGS), base="la", width=8))


def _oracle_alu(rng: random.Random, out: list, state: _GenState) -> None:
    _fuzz_alu(rng, out, state)


def _oracle_branch(rng: random.Random, out: list, state: _GenState) -> None:
    # Branch bodies stay store/load-free: a conditionally executed store
    # would make the definitely-written set path-dependent.
    label = state.fresh_label()
    cond = rng.choice(REGS)
    dst, a, b = (rng.choice(REGS) for _ in range(3))
    if rng.random() < 0.4:
        out.append(MovImm(cond, rng.choice([0, 1])))
    out.append(Jz(cond, label))
    out.append(Alu(dst, a, b, rng.choice(["add", "xor"])))
    out.append(AluImm(dst, dst, 7, "add"))
    out.append(Label(label))


def _oracle_fence(rng: random.Random, out: list, state: _GenState) -> None:
    _fuzz_fence(rng, out, state)


_ORACLE_TEMPLATES: dict[str, Callable[[random.Random, list, _GenState], None]] = {
    "covered": _oracle_covered,
    "transmit": _oracle_transmit,
    "store": _oracle_store,
    "load": _oracle_load,
    "alu": _oracle_alu,
    "branch": _oracle_branch,
    "fence": _oracle_fence,
}

ORACLE_WEIGHTS: dict[str, int] = {
    "covered": 20,
    "transmit": 20,
    "store": 15,
    "load": 15,
    "alu": 15,
    "branch": 10,
    "fence": 5,
}


def oracle_program(rng: random.Random, blocks: int) -> list:
    """Leakage-oracle programs: architectural state is fill-independent.

    Invariant: tracked registers (``r0..r3``) only ever receive constants,
    ALU combinations of tracked registers, or loads from offsets the
    program has already stored to — never raw buffer contents.  The
    initial buffer fill (the "secret") is therefore reachable only
    through transient paths.
    """
    return _weighted_program(rng, blocks, ORACLE_WEIGHTS, _ORACLE_TEMPLATES)


#: Generator registry: the name is part of every corpus entry and finding
#: so a stored case replays against exactly the generator that built it.
GENERATORS: dict[str, Callable[[random.Random, int], list]] = {
    "diff-v1": random_program,
    "fuzz-v1": fuzz_program,
    "oracle-v1": oracle_program,
}


def build_program(generator: str, seed: int, blocks: int) -> list[Instruction]:
    """Materialize the instruction list for a ``(generator, seed, blocks)``
    triple — the only program identity the corpus and findings store."""
    try:
        factory = GENERATORS[generator]
    except KeyError:
        known = ", ".join(sorted(GENERATORS))
        raise ConfigError(
            f"unknown generator {generator!r}; known: {known}"
        ) from None
    return factory(random.Random(seed), blocks)


#: Block-count range for generated programs (inclusive-exclusive).
_BLOCK_RANGE = (10, 44)


def derive_case(master_seed: int, index: int) -> tuple[int, int]:
    """The ``(program seed, blocks)`` of generated case ``index``.

    Independent of job count and process: seeded string RNG, no global
    state — the determinism the byte-identical-JSONL contract rests on.
    """
    rng = random.Random(f"repro-fuzz-case-{master_seed}-{index}")
    return rng.randrange(1, 1 << 30), rng.randrange(*_BLOCK_RANGE)


def parse_case(target: str) -> tuple[str, int, int]:
    """Parse a ``case:<generator>:<seed>:<blocks>`` program target (the
    syntax ``repro-scan`` and ``repro-trace record`` share)."""
    parts = target.split(":")
    if len(parts) != 4 or parts[0] != "case":
        raise ConfigError(
            f"bad target {target!r}: expected case:<generator>:<seed>:<blocks>"
        )
    _, generator, seed, blocks = parts
    if generator not in GENERATORS:
        raise ConfigError(
            f"unknown generator {generator!r}; known: {', '.join(sorted(GENERATORS))}"
        )
    try:
        return generator, int(seed), int(blocks)
    except ValueError:
        raise ConfigError(
            f"bad target {target!r}: seed and blocks must be integers"
        ) from None
