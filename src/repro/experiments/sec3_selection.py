"""E3 — Section III-C.1: what selects a predictor entry?

The paper's four-step argument that selection is keyed by the
*instruction physical address* (IPA), not the virtual one:

1. varying the *data* addresses never selects a new entry;
2. after ``fork`` (copy-on-write: same IVA, same IPA) the child observes
   the parent's training;
3. after ``mprotect`` + a dummy write (the kernel copies the page: same
   IVA, new IPA) the collision disappears;
4. through shared ``mmap`` (different IVA, same IPA) the collision is
   back.
"""

from __future__ import annotations

from repro.attacks.runtime import AttackerStld
from repro.cpu.machine import Machine
from repro.experiments.base import ExperimentResult
from repro.mem.physical import PAGE_SHIFT, PAGE_SIZE
from repro.osm.address_space import Perm
from repro.revng.stld import build_stld

__all__ = ["run"]


def run(seed: int = 31) -> ExperimentResult:
    machine = Machine(seed=seed)
    kernel = machine.kernel

    result = ExperimentResult(
        experiment_id="sec3-selection",
        title="Predictor-entry selection: IVA vs IPA",
        headers=["experiment", "IVA", "IPA", "collision observed", "matches paper"],
        paper_claim="selection depends on the load's IPA, not its IVA",
    )

    # Every conclusion rests on timing classes, as in the paper: each
    # process observes the shared stld through its own self-calibrated
    # attacker probe, built where the process first observes.
    # ------------------------------------------------------------ step 1
    parent = kernel.create_process("selection-parent")
    site = machine.load_program(parent, build_stld())
    parent_observer = AttackerStld(machine, parent, slide_pages=2)
    # Train with one data address, re-run aliasing pairs at another
    # buffer: no fresh G (the same entry is already trained).
    parent_observer.drain_c3(site)
    parent_observer.run(site, aliasing=True)       # G trains the entry
    first = parent_observer.observe(site, aliasing=True)
    other_buffer = kernel.map_anonymous(parent, pages=1)
    saved = parent_observer.load_va
    parent_observer.load_va = other_buffer + 0x80  # new data addresses
    second = parent_observer.observe(site, aliasing=True)
    parent_observer.load_va = saved
    data_independent = second.name != "ROLLBACK_BYPASS"
    result.add_row(
        "vary data addresses", "same", "same",
        "same entry" if data_independent else "new entry",
        data_independent,
    )

    # ------------------------------------------------------------ step 2
    parent_observer.charge_c3(site)
    child = kernel.fork(parent)
    child_observer = AttackerStld(machine, child, slide_pages=2)
    shared = child_observer.stalls(site)           # same IVA, same IPA
    result.add_row("fork (copy-on-write)", "same", "same", shared, shared)

    # ------------------------------------------------------------ step 3
    parent_observer.charge_c3(site)
    code_page = site.base_iva & ~(PAGE_SIZE - 1)
    pages = (site.byte_size >> PAGE_SHIFT) + 1
    kernel.mprotect(child, code_page, pages, Perm.RWX)
    kernel.write(child, code_page + 0xE00, b"dummy-data")  # COW break
    moved = child_observer.stalls(site)            # same IVA, NEW IPA
    result.add_row(
        "mprotect + dummy write (remap)", "same", "different", moved, not moved
    )

    # ------------------------------------------------------------ step 4
    parent_observer.charge_c3(site)
    stranger = kernel.create_process("selection-mmap")
    mapped = kernel.map_shared(
        stranger, parent, code_page, pages, perms=Perm.RX
    )
    view = site.relocate(mapped + (site.base_iva - code_page))
    stranger_observer = AttackerStld(machine, stranger, slide_pages=2)
    via_mmap = stranger_observer.stalls(view)      # new IVA, same IPA
    result.add_row("shared mmap", "different", "same", via_mmap, via_mmap)

    conclusion = data_independent and shared and not moved and via_mmap
    result.metrics["conclusion_ipa_selected"] = str(conclusion)
    return result
