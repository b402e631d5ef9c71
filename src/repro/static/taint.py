"""Secret-taint propagation over the lifted IR.

The threat model is the two-fill oracle's (:mod:`repro.fuzz.oracle`):
the program operates on one anonymous data buffer whose *initial*
contents are the secret.  A register becomes tainted when its value may
derive from those initial bytes, either

* **architecturally** — a load reads buffer bytes the program has not
  definitely overwritten (an *uncovered* load), or reads through a
  pointer the analysis cannot place inside the buffer at all (a
  *foreign* load — e.g. the victim-gadget ``array1``/``array2``
  pointers, whose memory the attacker treats as secret); or
* **speculatively** — a load that an older unresolved store should have
  fed is bypassed (SSBP predicts non-aliasing) or predictively forwarded
  (PSFP), so the load transiently observes *stale* memory: the initial
  fill.  These edges come from :func:`repro.static.windows.bypass_edges`
  and vanish under the ``ssbd``/``fence`` mitigations.

Taint is a pair of source sets per value — ``arch`` (architecturally
reachable secret) and ``spec`` (reachable on some transient path;
always a superset) — so the gadget layer can distinguish a hard
architectural dependence from a Spectre-style transient one.  Sources
are IR node indices, which is what lets findings carry exact
instruction spans.

Soundness over precision, throughout:

* every instruction is walked in program order, branch bodies included
  (transient execution runs wrong paths, so their taint must flow);
* a register defined inside a branch window *merges* with its prior
  value instead of replacing it (architecturally the def may be
  skipped);
* only definitely-executed stores at analyzable ``buf+const`` addresses
  add coverage; stores the analysis cannot place keep their data's
  taint by merging it into every covered byte they might hit;
* unknown values never launder taint (``and``/``xor`` of a tainted
  pointer stays tainted).

The known imprecision sources are catalogued in
``docs/static-analysis.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from repro.cpu.isa import (
    Alu,
    AluImm,
    Clflush,
    Imul,
    ImulImm,
    Jz,
    Load,
    Mov,
    MovImm,
    Rdpru,
    Store,
)
from repro.fuzz.gen import BUF_BYTES
from repro.static.ir import IRProgram
from repro.static.windows import BranchWindow, BypassEdge, window_nodes

__all__ = ["EMPTY", "RegVal", "TaintResult", "analyze_taint"]

#: The empty source set (untainted).
EMPTY: frozenset[int] = frozenset()

#: Abstract value regions.
_CONST, _BUF, _UNKNOWN = "const", "buf", "unknown"


class RegVal(NamedTuple):
    """Abstract register value: a region/offset plus taint source sets."""

    region: str = _UNKNOWN          # "const" | "buf" | "unknown"
    offset: int = 0                  # meaningful for const/buf
    arch: frozenset[int] = EMPTY     # architectural secret sources
    spec: frozenset[int] = EMPTY     # transient-path secret sources (⊇ arch)

    @property
    def tainted(self) -> bool:
        return bool(self.spec)


#: A :class:`RegVal`'s fields as a plain tuple — the pass's working form
#: (a plain tuple is several times cheaper to build than a named one).
_Value = tuple[str, int, frozenset[int], frozenset[int]]

_UNKNOWN_VAL: _Value = (_UNKNOWN, 0, EMPTY, EMPTY)

#: The coverage cells of a load that is not wholly in covered bounds.
_UNCOVERED = frozenset({None})


@dataclass
class TaintResult:
    """Per-node taint facts the gadget layer consumes."""

    #: memory-op node index -> (arch, spec) source sets of its *address*.
    address: dict[int, tuple[frozenset[int], frozenset[int]]] = field(
        default_factory=dict
    )
    #: memory-op node index -> abstract base-register value
    #: ("const"|"buf"|"unknown", offset) — alias reasoning and the advisor.
    values: dict[int, tuple[str, int]] = field(default_factory=dict)
    #: load/store node index -> the ``[lo, hi)`` buffer bytes it touches,
    #: for accesses at a known ``buf+const`` address inside the buffer.
    ranges: dict[int, tuple[int, int]] = field(default_factory=dict)
    #: branch node index -> (arch, spec) source sets of its condition.
    condition: dict[int, tuple[frozenset[int], frozenset[int]]] = field(
        default_factory=dict
    )
    #: final register environment (taint of architectural results).
    regs: dict[str, RegVal] = field(default_factory=dict)
    #: secret-source node index -> kind
    #: ("uncovered-load" | "foreign-load" | "stale-bypass").
    sources: dict[int, str] = field(default_factory=dict)


_BITWISE = {"xor": int.__xor__, "and": int.__and__, "or": int.__or__}
_PLACED = (_CONST, _BUF)


def _two_operand_value(cls: type, op: str, a: _Value, b: _Value) -> tuple[str, int]:
    """Constant/offset folding for ``Alu`` and ``Imul`` (value part only)."""
    a_region, a_offset = a[0], a[1]
    b_region, b_offset = b[0], b[1]
    if cls is Alu:
        if op == "add":
            if a_region == _CONST and b_region in _PLACED:
                return b_region, a_offset + b_offset
            if b_region == _CONST and a_region in _PLACED:
                return a_region, a_offset + b_offset
        if op == "sub" and a_region in _PLACED and b_region == _CONST:
            return a_region, a_offset - b_offset
        if a_region == _CONST and b_region == _CONST and op in _BITWISE:
            return _CONST, _BITWISE[op](a_offset, b_offset)
        return _UNKNOWN, 0
    # Imul
    if a_region == _CONST and b_region == _CONST:
        return _CONST, a_offset * b_offset
    if a_region == _CONST and a_offset == 1:
        return b_region, b_offset
    if b_region == _CONST and b_offset == 1:
        return a_region, a_offset
    return _UNKNOWN, 0


def _join(prior: _Value, value: _Value) -> _Value:
    """Join two possible values of one register (branch-window def merge)."""
    if prior[0] == value[0] and prior[1] == value[1]:
        return (prior[0], prior[1], prior[2] | value[2], prior[3] | value[3])
    return (_UNKNOWN, 0, prior[2] | value[2], prior[3] | value[3])


def analyze_taint(
    ir: IRProgram,
    edges: list[BypassEdge],
    windows: list[BranchWindow],
) -> TaintResult:
    """One forward pass: abstract values, coverage and taint sources.

    The pass reads ``ir.instructions`` and dispatches on the instruction
    class, most frequent first, keeping register values as plain tuples;
    it builds no per-node object.  Each class's rule reads and writes
    exactly the registers :data:`repro.static.ir.OPS` names for it.
    """
    address: dict[int, tuple[frozenset[int], frozenset[int]]] = {}
    values: dict[int, tuple[str, int]] = {}
    ranges: dict[int, tuple[int, int]] = {}
    condition: dict[int, tuple[frozenset[int], frozenset[int]]] = {}
    sources: dict[int, str] = {}
    regs: dict[str, _Value] = {"buf": (_BUF, 0, EMPTY, EMPTY)}
    get = regs.get
    #: definitely-overwritten buffer byte -> (arch, spec) taint of its data.
    coverage: dict[int, tuple[frozenset[int], frozenset[int]]] = {}
    bypassed = {edge.load for edge in edges}
    in_window = window_nodes(len(ir), windows)

    for index, ins in enumerate(ir.instructions):
        cls = type(ins)
        if cls is ImulImm:
            src = ins.src
            imm = ins.imm
            if imm == 1:
                if src == ins.dst and src in regs:
                    continue                     # a no-op: the delay chains
                value = get(src, _UNKNOWN_VAL)   # ``imul x, y, 1`` copies
            else:
                region, offset, arch, spec = get(src, _UNKNOWN_VAL)
                if region == _CONST:
                    value = (_CONST, offset * imm, arch, spec)
                else:
                    value = (_UNKNOWN, 0, arch, spec)
        elif cls is AluImm:
            region, offset, arch, spec = get(ins.src, _UNKNOWN_VAL)
            op = ins.op or "add"
            if region in _PLACED and op == "add":
                value = (region, offset + ins.imm, arch, spec)
            elif region in _PLACED and op == "sub":
                value = (region, offset - ins.imm, arch, spec)
            elif region == _CONST and op in _BITWISE:
                value = (_CONST, _BITWISE[op](offset, ins.imm), arch, spec)
            else:
                value = (_UNKNOWN, 0, arch, spec)
        elif cls is Mov:
            value = get(ins.src, _UNKNOWN_VAL)
        elif cls is MovImm:
            value = (_CONST, ins.value or 0, EMPTY, EMPTY)
        elif cls is Alu or cls is Imul:
            a = get(ins.a, _UNKNOWN_VAL)
            b = get(ins.b, _UNKNOWN_VAL)
            op = (ins.op or "add") if cls is Alu else ""
            region, offset = _two_operand_value(cls, op, a, b)
            value = (region, offset, a[2] | b[2], a[3] | b[3])
        elif cls is Load:
            region, offset, base_arch, base_spec = get(ins.base, _UNKNOWN_VAL)
            address[index] = (base_arch, base_spec)
            values[index] = (region, offset)
            arch: frozenset[int]
            spec: frozenset[int]
            if region == _BUF:
                lo = offset + ins.offset
                hi = lo + max(1, ins.width)
                if 0 <= lo and hi <= BUF_BYTES:
                    ranges[index] = (lo, hi)
                # The distinct coverage cells under the loaded bytes
                # (None: some byte is not definitely overwritten); an
                # uncovered first byte settles it without the set.
                cells = (
                    set(map(coverage.get, range(lo, hi)))
                    if index in ranges and lo in coverage
                    else _UNCOVERED
                )
                if None in cells:
                    sources[index] = "uncovered-load"
                    arch = spec = frozenset((index,))
                elif len(cells) == 1:            # one store covered it all
                    arch, spec = cells.pop()
                else:
                    arch = frozenset().union(*[cell[0] for cell in cells])
                    spec = frozenset().union(*[cell[1] for cell in cells])
            else:
                sources[index] = "foreign-load"
                arch = spec = frozenset((index,))
            if index in bypassed:
                # A bypass/PSF edge lets this load transiently observe
                # stale memory — the initial (secret) fill — even when
                # it is architecturally covered.
                sources.setdefault(index, "stale-bypass")
                spec = spec.union((index,))
            # The address itself being tainted also taints the value
            # (the load reads an attacker-unintended, secret-named slot).
            if base_arch or base_spec:
                arch, spec = arch | base_arch, spec | base_spec
            value = (_UNKNOWN, 0, arch, spec)
        elif cls is Store:
            region, offset, base_arch, base_spec = get(ins.base, _UNKNOWN_VAL)
            _, _, data_arch, data_spec = get(ins.src, _UNKNOWN_VAL)
            address[index] = (base_arch, base_spec)
            values[index] = (region, offset)
            lo = offset + ins.offset
            hi = lo + max(1, ins.width)
            placed = region == _BUF and 0 <= lo and hi <= BUF_BYTES
            if placed:
                ranges[index] = (lo, hi)
            if placed and not base_spec:
                if index not in in_window:
                    cell = (data_arch, data_spec)
                    for off in range(lo, hi):
                        coverage[off] = cell
                else:
                    # Maybe-executed store at a known offset: it cannot
                    # add coverage, but tainted data may land on covered
                    # bytes.
                    for off in range(lo, hi):
                        if off in coverage:
                            coverage[off] = (
                                coverage[off][0] | data_arch,
                                coverage[off][1] | data_spec,
                            )
            elif data_arch or data_spec:
                # Unplaceable store with tainted data: it may overwrite
                # any covered byte, so every entry inherits the taint.
                for off, (arch_d, spec_d) in coverage.items():
                    coverage[off] = (arch_d | data_arch, spec_d | data_spec)
            continue
        elif cls is Clflush:
            region, offset, base_arch, base_spec = get(ins.base, _UNKNOWN_VAL)
            address[index] = (base_arch, base_spec)
            values[index] = (region, offset)
            continue
        elif cls is Jz:
            cond = get(ins.cond, _UNKNOWN_VAL)
            condition[index] = (cond[2], cond[3])
            continue
        elif cls is Rdpru:
            value = _UNKNOWN_VAL
        else:
            continue                             # fence / halt / nop

        # Every class that reaches here defines exactly one register.  A
        # def inside a branch window merges with the prior value
        # (architecturally it may be skipped).
        name = ins.dst
        if index in in_window and name in regs:
            regs[name] = _join(regs[name], value)
        else:
            regs[name] = value

    final = {name: RegVal(*value) for name, value in regs.items()}
    return TaintResult(address, values, ranges, condition, final, sources)
