"""The stld microbenchmark (paper Listing 1) and the one runner that times it.

``build_stld`` produces the paper's probe routine: a store whose address
generation is delayed by a chain of 20 multiplies, immediately followed
by a load, followed by a dependent consumer chain that amplifies the
load's completion time into the routine's total time (the paper leans on
execution-port pressure for the same amplification).

:class:`StldRunner` is the one place an stld runs: it owns a process's
data buffer, builds the routine's registers for an aliasing or a
non-aliasing run and reads the measured cycles the way RDPRU would.  The
privileged analyst's :class:`StldHarness`, the unprivileged attacker's
:class:`repro.attacks.runtime.AttackerStld` and the victims of the ASLR
and fingerprinting attacks all run their stlds through it.

:class:`StldHarness` drives stld variants on a :class:`Machine` exactly
the way the paper drives them on silicon: it places stld copies at
controlled instruction physical addresses (the privileged PTEditor-style
placement used in the reverse-engineering phase), executes sequences
like ``(7n, a)`` and reports per-invocation timings.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.hashfn import collision_offset, ipa_hash
from repro.cpu.isa import Halt, ImulImm, Load, Mov, Program, Store
from repro.cpu.machine import Machine
from repro.cpu.pipeline import RunResult
from repro.errors import CollisionNotFound, ConfigError
from repro.mem.physical import PAGE_SHIFT, PAGE_SIZE
from repro.osm.address_space import Perm
from repro.osm.process import Process
from repro.revng.sequences import StldToken, parse

__all__ = [
    "build_stld",
    "load_instruction_index",
    "store_instruction_index",
    "StldVariant",
    "StldRunner",
    "StldHarness",
]

#: Registers of the stld routine (mirroring the paper's rdi/rsi usage).
STORE_ADDR_REG = "rdi"
LOAD_ADDR_REG = "rsi"
DATA_REG = "rdx"

_AGEN_IMULS = 20
_CONSUMER_IMULS = 13


def build_stld(
    agen_imuls: int = _AGEN_IMULS, consumer_imuls: int = _CONSUMER_IMULS
) -> Program:
    """The probe routine: delayed store, racing load, consumer chain."""
    instructions = [Mov("t0", STORE_ADDR_REG)]
    instructions += [ImulImm("t0", "t0", 1)] * agen_imuls
    instructions.append(Store(base="t0", src=DATA_REG, width=8))
    instructions.append(Load("rax", base=LOAD_ADDR_REG, width=8))
    instructions.append(Mov("acc", "rax"))
    instructions += [ImulImm("acc", "acc", 1)] * consumer_imuls
    instructions.append(Halt())
    return Program(instructions, name="stld")


def store_instruction_index(program: Program) -> int:
    """Index of the (single) store inside an stld program."""
    for index, instruction in enumerate(program.instructions):
        if isinstance(instruction, Store):
            return index
    raise ConfigError("program has no store")


def load_instruction_index(program: Program) -> int:
    """Index of the (single) load inside an stld program."""
    for index, instruction in enumerate(program.instructions):
        if isinstance(instruction, Load):
            return index
    raise ConfigError("program has no load")


@dataclass
class StldVariant:
    """One placed stld copy with its achieved predictor-selection hashes."""

    program: Program
    load_iva: int
    store_iva: int
    load_hash: int
    store_hash: int


class StldRunner:
    """Runs stld programs inside one process and times them.

    The constructor maps the process's two-page data buffer.  Every run
    loads from :attr:`load_va`; an aliasing run stores to the same
    address (read at run time, so re-pointing ``load_va`` moves both),
    a non-aliasing run stores 64 bytes further (the paper requires a
    difference greater than 4).
    """

    # AttackerStld sets thread_id and timer through super().__init__.
    def __init__(
        self, machine: Machine, process: Process, thread_id: int = 0, timer=None
    ) -> None:
        self.machine = machine
        self.process = process
        self.thread_id = thread_id
        #: Optional measurement transform (e.g. a coarse browser timer);
        #: receives true cycles, returns the caller-visible reading.
        self.timer = timer
        buf = machine.kernel.map_anonymous(process, pages=2)
        self.load_va = buf + 0x100
        self.disjoint_store_va = self.load_va + 64
        #: stld programs executed so far (a victim's invocation count).
        self.runs = 0

    def execute(self, program: Program, aliasing: bool) -> RunResult:
        """Execute one stld unmeasured; returns the pipeline's result."""
        self.runs += 1
        load_va = self.load_va
        return self.machine.run(
            self.process,
            program,
            {
                STORE_ADDR_REG: load_va if aliasing else self.disjoint_store_va,
                LOAD_ADDR_REG: load_va,
                DATA_REG: 0xDD,
            },
            thread_id=self.thread_id,
        )

    def run(self, program: Program, aliasing: bool) -> int:
        """Execute one stld; returns its measured (RDPRU-style) cycles."""
        cycles = self.machine.core.jitter(self.execute(program, aliasing).cycles)
        interference = self.machine.interference
        if interference is not None:
            # Clock drift/jitter is a property of the environment; any
            # attacker-side timer (secure-timer quantization, browser
            # coarsening) reads the already-drifted clock, so the
            # interference transform composes *first*.
            cycles = interference.timer(cycles)
        if self.timer is not None:
            cycles = self.timer(cycles)
        return cycles

    def charge_c3(self, program: Program) -> None:
        """Section IV-A SSBP training, ``(7n, a) x 3``: saturates C4 and
        charges C3 of this program's entry."""
        for _ in range(3):
            for _ in range(7):
                self.run(program, aliasing=False)
            self.run(program, aliasing=True)


class StldHarness(StldRunner):
    """Drives stld microbenchmarks against the simulated machine, in a
    process of its own on thread 0."""

    def __init__(self, machine: Machine | None = None) -> None:
        machine = machine or Machine(seed=2024)
        super().__init__(machine, machine.kernel.create_process("revng"))
        self.kernel = machine.kernel
        self._variants: dict[tuple[int, int], StldVariant] = {}
        self._load_hash_by_id: dict[int, int] = {}
        self._store_hash_by_id: dict[int, int] = {}
        self._template = build_stld()
        self._ensure_variant(StldToken(aliasing=False))  # the base stld
        self._warm()

    # ------------------------------------------------------------------
    # Variant placement (privileged, PTEditor-style)
    # ------------------------------------------------------------------
    @property
    def salt(self) -> int:
        return self.machine.core.hash_salt

    def variant(self, load_id: int = 0, store_id: int = 0) -> StldVariant:
        """The stld copy of this id pair, placed on first use."""
        return self._ensure_variant(StldToken(False, load_id, store_id))

    def forget_ids(self, ids: set[int]) -> None:
        """Release id -> hash bindings (and their variants).

        Experiments that need an endless supply of random-hash stlds
        (e.g. fresh eviction sets per trial) recycle a bounded id range;
        only 4096 distinct load hashes exist, so unbounded *unique* ids
        would exhaust the space.
        """
        for key in [k for k in self._variants if k[0] in ids or k[1] in ids]:
            del self._variants[key]
        for mapping in (self._load_hash_by_id, self._store_hash_by_id):
            for bound in [i for i in mapping if i in ids]:
                del mapping[bound]

    def _frame_of(self, vaddr: int) -> int:
        mapping = self.process.address_space.mapping(vaddr >> PAGE_SHIFT)
        assert mapping is not None
        return mapping.frame

    def _hash_at(self, iva: int) -> int:
        ipa = self.process.address_space.translate_nofault(iva)
        assert ipa is not None
        return ipa_hash(ipa, self.salt)

    def _ensure_variant(self, token: StldToken) -> StldVariant:
        key = (token.load_id, token.store_id)
        cached = self._variants.get(key)
        if cached is not None:
            return cached
        variant = self._place_variant(token.load_id, token.store_id)
        self._variants[key] = variant
        self._load_hash_by_id.setdefault(token.load_id, variant.load_hash)
        self._store_hash_by_id.setdefault(token.store_id, variant.store_hash)
        return variant

    def _place_variant(self, load_id: int, store_id: int) -> StldVariant:
        """Place an stld copy whose hashes honour the id constraints.

        An id already bound to a hash is an *equality* constraint; a new
        id must land on a hash different from every other id of that axis.
        The in-page offset is the single degree of freedom, so an equality
        constraint anchors the placement and everything else is verified
        (retrying across fresh regions until it holds).
        """
        want_load = self._load_hash_by_id.get(load_id)
        want_store = self._store_hash_by_id.get(store_id)
        if want_load is not None and want_store is not None:
            # With a fixed store->load byte distance the two hashes are
            # linked: hash(store) = hash(load) ^ o ^ (o - distance) for
            # the load's page offset o, which spans only a handful of
            # values.  Arbitrary (load, store) hash pairs are therefore
            # unreachable — the paper's Fig 7 finding that collisions
            # require matching IPA distances.  Reuse an existing variant
            # or pick a fresh id instead.
            raise CollisionNotFound(
                f"cannot satisfy two hash equalities at once "
                f"(load_id={load_id}, store_id={store_id}): the fixed "
                "store-load distance links the hashes (paper Fig 7)"
            )
        other_loads = {
            h for i, h in self._load_hash_by_id.items() if i != load_id
        }
        other_stores = {
            h for i, h in self._store_hash_by_id.items() if i != store_id
        }
        template = self._template
        load_off = template.iva(load_instruction_index(template)) - template.base_iva
        store_off = template.iva(store_instruction_index(template)) - template.base_iva
        for _ in range(20_000):
            region = self.kernel.map_anonymous(
                self.process, pages=3, perms=Perm.RX, kind="code"
            )
            anchor_page = region + PAGE_SIZE  # middle page: room both ways
            frame = self._frame_of(anchor_page)
            if want_load is not None:
                offset = collision_offset(want_load, frame, self.salt)
                base_iva = anchor_page + offset - load_off
            elif want_store is not None:
                offset = collision_offset(want_store, frame, self.salt)
                base_iva = anchor_page + offset - store_off
            else:
                base_iva = anchor_page
            if base_iva < region or base_iva + template.byte_size > (
                region + 3 * PAGE_SIZE
            ):
                continue
            load_iva = base_iva + load_off
            store_iva = base_iva + store_off
            load_hash = self._hash_at(load_iva)
            store_hash = self._hash_at(store_iva)
            if want_load is not None and load_hash != want_load:
                continue
            if want_store is not None and store_hash != want_store:
                continue
            if want_load is None and load_hash in other_loads:
                continue
            if want_store is None and store_hash in other_stores:
                continue
            program = self.machine.place_program(self.process, template, base_iva)
            return StldVariant(
                program=program,
                load_iva=load_iva,
                store_iva=store_iva,
                load_hash=load_hash,
                store_hash=store_hash,
            )
        raise CollisionNotFound(
            f"could not place stld variant (load_id={load_id}, store_id={store_id})"
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _warm(self) -> None:
        """Warm the data lines with predictor-neutral runs (type H)."""
        for _ in range(3):
            self.run_token(StldToken(aliasing=False))

    def run_token(self, token: StldToken) -> int:
        """Execute one stld; returns its (noisy) measured cycles."""
        return self.run(self._ensure_variant(token).program, token.aliasing)

    def run_token_with_pmc(self, token: StldToken) -> tuple[int, dict[str, int]]:
        """Execute one stld; returns (cycles, per-event PMC deltas).

        The deltas are counted organically by the pipeline (dispatches,
        forwards, stall tokens, rollbacks) — the Fig 2 attribution
        methodology.
        """
        thread = self.machine.core.thread(self.thread_id)
        snapshot = thread.pmc.snapshot()
        cycles = self.run_token(token)
        return cycles, thread.pmc.delta_since(snapshot)

    def run_sequence(self, sequence: str | list[StldToken]) -> list[int]:
        """Execute a sequence string like ``"7n, a"``; returns timings."""
        tokens = parse(sequence) if isinstance(sequence, str) else sequence
        return [self.run_token(token) for token in tokens]

    def run_events(self, sequence: str | list[StldToken]):
        """Oracle mode: execute a sequence and return the ground-truth
        execution types recorded by the pipeline (one per stld)."""
        tokens = parse(sequence) if isinstance(sequence, str) else sequence
        types = []
        for token in tokens:
            variant = self._ensure_variant(token)
            result = self.execute(variant.program, token.aliasing)
            stld_events = [
                event
                for event in result.events
                if event.load_ipa
                == self.process.address_space.translate_nofault(variant.load_iva)
            ]
            assert len(stld_events) == 1, "stld must produce exactly one event"
            types.append(stld_events[0].exec_type)
        return types
