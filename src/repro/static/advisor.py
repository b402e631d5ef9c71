"""Fence advisor: minimal ``Mfence`` placement that kills bypass gadgets.

The blanket ``fence`` mitigation (:func:`repro.mitigations.fences
.fence_after_stores`) serializes *every* store — correct but maximally
expensive.  The scanner knows better: it knows exactly which store→load
bypass edges feed gadgets, so it can compute a minimal set of fence
positions that severs all of them and leave every harmless store
unfenced.

The placement problem is interval point-cover: an edge ``(store,
load)`` is severed by a fence at any position ``p`` with ``store <= p <
load``, so each gadget-feeding load ``L`` needs one fence in
``[last_feeding_store(L), L)``.  The classic greedy — walk loads in
program order, place a fence immediately before a load only when no
already-placed fence covers it — is optimal for interval stabbing, so
the plan's fence count is provably minimal for the edge set the scanner
wants dead.

``advise`` does not stop at proposing: it applies the plan with
:func:`repro.mitigations.fences.fence_after` and **re-scans the patched
program**, so a plan carries proof that the bypass-fed gadgets are gone
(``bypass_clean``) plus the residual findings fences cannot fix —
architectural dependences and branch-condition transmitters, which need
program rewrites, not barriers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cpu.isa import Instruction, Program
from repro.mitigations.fences import fence_after
from repro.static.gadgets import ScanReport, StaticGadget, scan_program
from repro.telemetry.metrics import registry

__all__ = ["FencePlan", "advise"]


@dataclass
class FencePlan:
    """A minimal fence placement plus before/after proof scans."""

    name: str
    #: instruction indices (into the *original* program) to fence after.
    positions: tuple[int, ...]
    before: ScanReport
    after: ScanReport
    patched: list[Instruction]

    @property
    def bypass_clean(self) -> bool:
        """The patched program has no bypass-fed (spec-channel) gadget."""
        return not any(g.channel == "spec" for g in self.after.gadgets)

    @property
    def residual(self) -> list[StaticGadget]:
        """Gadgets fences cannot kill (architectural / branch-fed)."""
        return list(self.after.gadgets)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "positions": list(self.positions),
            "fences": len(self.positions),
            "bypass_clean": self.bypass_clean,
            "before": self.before.to_dict(),
            "after": self.after.to_dict(),
        }


def _instructions_of(program: Program | list[Instruction]) -> list[Instruction]:
    if isinstance(program, Program):
        return list(program.instructions)
    return list(program)


def _guilty_loads(report: ScanReport) -> dict[int, int]:
    """Loads whose bypass edges must die -> last feeding store index.

    A load is guilty when it appears as a ``stale-bypass`` source in any
    gadget's source span (its transient stale read taints a transmitter)
    or anchors a ``stale-value-probe`` directly.
    """
    stale = {
        index for index, kind in report.sources.items() if kind == "stale-bypass"
    }
    guilty: set[int] = set()
    for gadget in report.gadgets:
        if gadget.kind == "stale-value-probe":
            guilty.add(gadget.node)
        guilty.update(index for index in gadget.sources if index in stale)
    last_store: dict[int, int] = {}
    for edge in report.edges:
        if edge.load in guilty:
            last_store[edge.load] = max(last_store.get(edge.load, -1), edge.store)
    return last_store


def advise(
    program: Program | list[Instruction],
    *,
    name: str | None = None,
) -> FencePlan:
    """Compute, apply and verify a minimal fence plan for one program."""
    instructions = _instructions_of(program)
    before = scan_program(instructions, mitigation="none", name=name)

    # Greedy interval point-cover, optimal because intervals are visited
    # by right endpoint: each guilty load L needs a fence in
    # [last_feeding_store(L), L); placing it at L-1 covers as many later
    # intervals as any choice can.
    positions: list[int] = []
    for load, last_store in sorted(_guilty_loads(before).items()):
        if positions and positions[-1] >= last_store:
            continue  # the previous fence already severs every edge into L
        positions.append(load - 1)

    patched = fence_after(instructions, positions)
    after = scan_program(patched, mitigation="none", name=f"{before.name}+fences")
    registry().counter("scan.advised_fences").inc(len(positions))
    return FencePlan(
        name=before.name,
        positions=tuple(positions),
        before=before,
        after=after,
        patched=patched,
    )
