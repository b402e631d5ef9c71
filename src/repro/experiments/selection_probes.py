"""Shared machinery for the selection/isolation experiments (E3, E7).

A :class:`SelectionObserver` keeps one self-calibrated
:class:`repro.attacks.runtime.AttackerStld` per process, so any stld
program mapped in that process — including another process's code seen
through fork/COW or shared mmap — can be timed and classified.  All
conclusions rest on timing classes, as in the paper.
"""

from __future__ import annotations

from repro.attacks.runtime import AttackerStld
from repro.core.exec_types import TimingClass
from repro.cpu.isa import Program
from repro.cpu.machine import Machine
from repro.osm.process import Process
from repro.revng.stld import build_stld

__all__ = ["SelectionObserver"]

class SelectionObserver:
    """Per-process timing observers over shared stld code."""

    def __init__(self, machine: Machine, thread_id: int = 0) -> None:
        self.machine = machine
        self.thread_id = thread_id
        self.template = build_stld()
        self._observers: dict[int, AttackerStld] = {}

    def observer_for(self, process: Process) -> AttackerStld:
        observer = self._observers.get(process.pid)
        if observer is None:
            observer = AttackerStld(
                self.machine, process, thread_id=self.thread_id, slide_pages=2
            )
            self._observers[process.pid] = observer
        return observer

    # ------------------------------------------------------------------
    # Site management
    # ------------------------------------------------------------------
    def place_site(self, process: Process, iva: int | None = None) -> Program:
        """Place a fresh stld in ``process`` (at ``iva`` if given)."""
        if iva is None:
            return self.machine.load_program(process, self.template)
        return self.machine.place_program(process, self.template, iva)

    @staticmethod
    def view(program: Program, iva: int) -> Program:
        """The same instructions seen at another virtual address."""
        return program.relocate(iva)

    # ------------------------------------------------------------------
    # SSBP probes
    # ------------------------------------------------------------------
    def charge(self, process: Process, program: Program) -> None:
        self.observer_for(process).charge_c3(program)

    def drain(self, process: Process, program: Program) -> None:
        self.observer_for(process).drain_c3(program)

    def reads_charged(self, process: Process, program: Program) -> bool:
        """Does a non-aliasing probe through this view stall (C3 > 0)?"""
        return self.observer_for(process).stalls(program)

    # ------------------------------------------------------------------
    # PSFP probes
    # ------------------------------------------------------------------
    def train_psf(self, process: Process, program: Program) -> bool:
        return self.observer_for(process).train_psf(program)

    def psf_alive(self, process: Process, program: Program) -> bool:
        """Does an aliasing probe through this view still forward
        predictively (type C)?  Distinguishes a live PSFP entry from a
        flushed one (which stalls via the surviving C3, or G's)."""
        observed = self.observer_for(process).observe(program, aliasing=True)
        return observed is TimingClass.PSF_FORWARD
