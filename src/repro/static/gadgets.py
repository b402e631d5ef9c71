"""Gadget classification: turning taint facts into findings.

A *gadget* is an instruction (plus the secret sources feeding it) whose
execution makes one of the two-fill oracle's observation channels
secret-dependent.  The kinds map one-to-one onto those channels:

``transmit-load`` / ``transmit-store`` / ``transmit-flush``
    A memory operation whose **address** carries taint.  Addresses
    select cache lines, so a tainted address is the classic cache
    transmitter (``cached_lines`` / PMC / cycle differences) — this is
    the Spectre disclosure-gadget shape, and it fires whether the taint
    is architectural or only reachable transiently.

``transmit-branch``
    A ``Jz`` whose condition carries taint: the executed (or
    transiently executed) path shape becomes secret-dependent, which
    shows up in rollback counts, cycles and execution-type traces.

``stale-value-probe``
    A store→load bypass edge whose endpoints may alias.  Even with a
    clean address, the bypassing load transiently reads stale (secret)
    memory and the pipeline *validates* that value when the store
    resolves — whether it squashes depends on whether the secret equals
    the stored value, so rollback/cycle counts become secret-dependent.

``architectural-secret-value``
    A tracked result register still architecturally tainted at program
    end.  This is the scanner's image of the oracle's
    ``architectural-secret-dependence`` invariant violation.

Every gadget carries its source span (instruction indices + reprs), the
predictor preconditions required to realize it (TABLE I phrasing, from
:mod:`repro.static.windows`) and the mitigations that kill it.
Soundness note: the mapping is over-approximate by construction — each
kind is derived from taint facts that are themselves conservative — and
the cross-validation layer (:mod:`repro.static.crossval`) tests the
resulting invariant against the dynamic oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.cpu.isa import Instruction, Program
from repro.fuzz.gen import REGS
from repro.static.ir import OPS, IRProgram, lift
from repro.static.taint import EMPTY, TaintResult, analyze_taint
from repro.static.windows import (
    BranchWindow,
    BypassEdge,
    branch_windows,
    bypass_edges,
    bypass_preconditions,
    psf_preconditions,
    window_nodes,
)
from repro.telemetry.metrics import registry

__all__ = ["GADGET_KINDS", "StaticGadget", "ScanReport", "scan_program"]

GADGET_KINDS = (
    "transmit-load",
    "transmit-store",
    "transmit-flush",
    "transmit-branch",
    "stale-value-probe",
    "architectural-secret-value",
)

#: Precondition line attached to gadgets that need a transient wrong path.
_BRANCH_PRECONDITION = (
    "branch-mispredict: the flagged span executes transiently on the "
    "wrong path of an unresolved Jz"
)


class StaticGadget(NamedTuple):
    """One finding: a transmitting instruction plus its secret sources.

    A named tuple rather than a frozen dataclass: cheaper to build, and
    a scan builds one per finding.
    """

    kind: str                      # one of GADGET_KINDS
    node: int                      # index of the transmitting instruction
    channel: str                   # "arch" | "spec"
    sources: tuple[int, ...]       # secret-source node indices (sorted)
    span: tuple[str, ...]          # reprs of sources + transmitter, in order
    preconditions: tuple[str, ...]
    killed_by: tuple[str, ...]     # mitigations that remove this gadget
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "node": self.node,
            "channel": self.channel,
            "sources": list(self.sources),
            "span": list(self.span),
            "preconditions": list(self.preconditions),
            "killed_by": list(self.killed_by),
            "detail": self.detail,
        }


@dataclass
class ScanReport:
    """Everything one static scan of one program produced."""

    name: str
    mitigation: str
    instructions: int
    gadgets: list[StaticGadget]
    edges: list[BypassEdge]
    windows: list[BranchWindow]
    sources: dict[int, str]        # node index -> secret-source kind

    @property
    def clean(self) -> bool:
        """No gadget of any kind — the program cannot leak (soundness)."""
        return not self.gadgets

    def kinds(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for gadget in self.gadgets:
            counts[gadget.kind] = counts.get(gadget.kind, 0) + 1
        return {kind: counts[kind] for kind in sorted(counts)}

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "mitigation": self.mitigation,
            "instructions": self.instructions,
            "clean": self.clean,
            "kinds": self.kinds(),
            "gadgets": [gadget.to_dict() for gadget in self.gadgets],
            "edges": [edge.to_dict() for edge in self.edges],
            "windows": [window.to_dict() for window in self.windows],
            "sources": {
                str(index): kind for index, kind in sorted(self.sources.items())
            },
        }


_KIND_RANK = {kind: rank for rank, kind in enumerate(GADGET_KINDS)}


def _gadget_order(gadget: StaticGadget) -> tuple:
    return (gadget.node, _KIND_RANK[gadget.kind], gadget.sources)


def _preconditions_for(
    sources: frozenset[int],
    node: int,
    stale: frozenset[int],
    in_window: frozenset[int],
) -> tuple[str, ...]:
    """TABLE I and branch preconditions for one finding.

    ``stale`` holds the stale-bypass source nodes, ``in_window`` the
    nodes inside some branch's transient window.
    """
    lines: tuple[str, ...] = ()
    if not stale.isdisjoint(sources):
        lines = bypass_preconditions() + psf_preconditions()
    if node in in_window or not in_window.isdisjoint(sources):
        lines += (_BRANCH_PRECONDITION,)
    return lines


def _killed_by(channel: str, sources: frozenset[int], stale: frozenset[int]) -> tuple[str, ...]:
    if channel == "spec" and sources <= stale:
        # Purely bypass-fed: both the chicken bit and the fence transform
        # remove every edge, so the taint never arises.
        return ("ssbd", "fence")
    return ()


def _may_alias(store: tuple[int, int] | None, load: tuple[int, int] | None) -> bool:
    """Whether a store/load pair may touch overlapping buffer bytes.

    Known, disjoint ``buf+const`` ranges provably cannot interact; any
    unknown or out-of-bounds address may alias (conservative).
    """
    if store is None or load is None:
        return True
    return store[0] < load[1] and load[0] < store[1]


def _classify(
    ir: IRProgram,
    edges: list[BypassEdge],
    windows: list[BranchWindow],
    taint: TaintResult,
    tracked_regs: tuple[str, ...],
) -> list[StaticGadget]:
    """Turn one program's taint facts into its findings, in report order."""
    in_window = window_nodes(len(ir), windows)
    stale = frozenset(
        index for index, kind in taint.sources.items() if kind == "stale-bypass"
    )
    gadgets: list[StaticGadget] = []

    def add(kind: str, node: int, arch: frozenset[int], spec: frozenset[int],
            detail: str) -> None:
        channel = "arch" if arch else "spec"
        sources = arch or spec
        gadgets.append(StaticGadget(
            kind,
            node,
            channel,
            tuple(sorted(sources)),
            ir.reprs(sources | {node} if node >= 0 else sources),
            _preconditions_for(sources, max(node, 0), stale, in_window),
            _killed_by(channel, sources, stale),
            detail,
        ))

    for index, (arch, spec) in taint.address.items():
        if arch or spec:
            cls = type(ir.instructions[index])
            add(f"transmit-{OPS[cls].kind}", index, arch, spec,
                f"tainted address in {cls.__name__}")
    for index, (arch, spec) in taint.condition.items():
        if arch or spec:
            add("transmit-branch", index, arch, spec,
                "secret-dependent branch condition")
    ranges = taint.ranges
    for edge in edges:
        if _may_alias(ranges.get(edge.store), ranges.get(edge.load)):
            add("stale-value-probe", edge.load, EMPTY, frozenset((edge.load,)),
                f"bypass of store@{edge.store} makes squash-on-mismatch depend "
                "on stale (secret) data")
    halt = len(ir) - 1
    regs = taint.regs
    for reg in tracked_regs:
        value = regs.get(reg)
        if value is not None and value.arch:
            add("architectural-secret-value", halt, value.arch, value.spec,
                f"tracked register {reg} holds secret-derived data at halt")

    gadgets.sort(key=_gadget_order)
    return gadgets


def scan_program(
    program: Program | list[Instruction],
    *,
    mitigation: str = "none",
    tracked: tuple[str, ...] | list[str] | None = None,
    name: str | None = None,
) -> ScanReport:
    """Statically scan one program for speculative-leakage gadgets.

    Pure and deterministic: the report is a function of the instruction
    list, the mitigation and the tracked-register set alone (default:
    the fuzz result registers ``r0..r3``).
    """
    if name is None:
        name = program.name if isinstance(program, Program) else "program"
    tracked_regs = tuple(tracked) if tracked is not None else tuple(REGS)

    ir = lift(program)
    edges = bypass_edges(ir, mitigation)
    windows = branch_windows(ir)
    taint = analyze_taint(ir, edges, windows)
    gadgets = _classify(ir, edges, windows, taint, tracked_regs)
    metrics = registry()
    metrics.counter("scan.programs").inc()
    metrics.counter("scan.gadgets").inc(len(gadgets))
    metrics.counter("scan.edges").inc(len(edges))
    metrics.counter("scan.windows").inc(len(windows))
    if not gadgets:
        metrics.counter("scan.clean").inc()
    return ScanReport(
        name=name,
        mitigation=mitigation,
        instructions=len(ir),
        gadgets=gadgets,
        edges=edges,
        windows=windows,
        sources=taint.sources,
    )
