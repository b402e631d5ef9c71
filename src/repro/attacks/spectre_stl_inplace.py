"""The in-place Spectre-STL baseline (the attack known before this paper).

Prior work [13, 26] could only exploit Spectre-STL *in place*: the
attacker must get the **victim's own store-load pair** executed over and
over (aliasing) to train the predictor before each leak, because no way
to reach the pair's predictor entry from attacker-controlled code was
known.  The paper's out-of-place attack replaces that with one training
pass on the attacker's own colliding stld.

This module implements the in-place baseline against the same gadget and
measures its cost in *victim invocations per leaked byte* — the quantity
the out-of-place attack improves (the paper: "only one execution of
victim_function is required for leaking each secret").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.attacks.flush_reload import FlushReloadChannel
from repro.attacks.leak_report import SecretLeak
from repro.attacks.victim_gadgets import spectre_stl_gadget
from repro.cpu.isa import Clflush, Halt, MovImm, Program
from repro.cpu.machine import Machine
from repro.osm.process import Process

__all__ = ["InPlaceLeakReport", "SpectreSTLInPlace"]

_ATTACK_IDX = 300
_TRAIN_RUNS = 8
#: Non-aliasing victim runs needed to drain a fully charged C3 (max 32).
_DRAIN_RUNS = 34


@dataclass
class InPlaceLeakReport(SecretLeak):
    victim_invocations: int

    @property
    def invocations_per_byte(self) -> float:
        return self.victim_invocations / max(1, len(self.expected))


class SpectreSTLInPlace:
    """Train by running the victim itself with an aliasing index."""

    def __init__(self, machine: Machine | None = None) -> None:
        self.machine = machine or Machine(seed=4242)
        kernel = self.machine.kernel
        self.process: Process = kernel.create_process("inplace-victim")
        self.array1 = kernel.map_anonymous(self.process, pages=2)
        self.array2 = kernel.map_anonymous(self.process, pages=512)
        self.idx_slot = kernel.map_anonymous(self.process, pages=1)
        self.secret_va = kernel.map_anonymous(self.process, pages=4)
        kernel.write(self.process, self.array2, (0).to_bytes(8, "little"))
        self.victim = self.machine.load_program(self.process, spectre_stl_gadget())
        self.channel = FlushReloadChannel(self.machine, self.process, self.array2)
        self._flush_idx = self.machine.load_program(
            self.process,
            Program(
                [MovImm("p", self.idx_slot), Clflush(base="p"), Halt()],
                name="flush-idx",
            ),
        )
        self.victim_invocations = 0

    def _run_victim(self, x: int, idx: int, flush_idx: bool) -> None:
        kernel = self.machine.kernel
        kernel.write(self.process, self.idx_slot, idx.to_bytes(8, "little"))
        if flush_idx:
            self.machine.run(self.process, self._flush_idx)
        self.machine.run(
            self.process,
            self.victim,
            {
                "x": x & ((1 << 64) - 1),
                "idx_ptr": self.idx_slot,
                "array1": self.array1,
                "array2": self.array2,
            },
        )
        self.victim_invocations += 1

    def _train_in_place(self) -> None:
        """Drive the victim's own pair to the PSF state, using only
        victim invocations (the in-place constraint).

        A syscall clears the pair's PSFP half, but C3 residue from
        earlier rounds (C4 saturates after a few leaks) would pin the
        pair in the sticky states where C0 can never rise; non-aliasing
        victim runs (a disjoint ``idx``) drain it first.  Then ``idx=0``
        aliasing runs deliver the G and count C1 down until the pair
        forwards predictively.  This is why the in-place attack costs so
        many victim executions per byte."""
        self.machine.kernel.syscall(self.process)  # reset PSFP state
        for _ in range(_DRAIN_RUNS):
            self._run_victim(x=0, idx=_ATTACK_IDX, flush_idx=True)
        for _ in range(_TRAIN_RUNS):
            self._run_victim(x=0, idx=0, flush_idx=True)

    def _leak_byte(self, array1_offset: int) -> int | None:
        self._train_in_place()
        self.channel.flush_all()
        self._run_victim(x=array1_offset, idx=_ATTACK_IDX, flush_idx=True)
        hits = [
            slot
            for slot, t in enumerate(self.channel.reload_times())
            if t < self.channel.threshold and slot != 0
        ]
        if len(hits) == 1:
            return hits[0]
        if not hits:
            return 0
        return None

    def leak(self, secret: bytes) -> InPlaceLeakReport:
        kernel = self.machine.kernel
        kernel.write(self.process, self.secret_va, secret)
        self.victim_invocations = 0
        recovered = bytearray()
        for index in range(len(secret)):
            offset = self.secret_va + index - self.array1
            byte = self._leak_byte(offset)
            if byte is None:
                byte = self._leak_byte(offset) or 0
            recovered.append(byte)
        return InPlaceLeakReport(
            recovered=bytes(recovered),
            expected=secret,
            victim_invocations=self.victim_invocations,
        )
