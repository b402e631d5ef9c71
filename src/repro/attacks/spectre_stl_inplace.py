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
from repro.attacks.victim_gadgets import STL_ATTACK_IDX, StlVictim
from repro.cpu.machine import Machine
from repro.osm.process import Process

__all__ = ["InPlaceLeakReport", "SpectreSTLInPlace"]

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

    def __init__(self) -> None:
        self.machine = Machine(seed=4242)
        self.process: Process = self.machine.kernel.create_process("inplace-victim")
        self.victim = StlVictim(self.machine, self.process)
        self.channel = FlushReloadChannel(self.machine, self.process, self.victim.array2)

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
        self.victim.set_idx(STL_ATTACK_IDX)
        for _ in range(_DRAIN_RUNS):
            self.victim.call(0)
        self.victim.set_idx(0)
        for _ in range(_TRAIN_RUNS):
            self.victim.call(0)

    def _leak_byte(self, array1_offset: int) -> int | None:
        self._train_in_place()
        self.channel.flush_all()
        self.victim.set_idx(STL_ATTACK_IDX)
        self.victim.call(array1_offset)
        return self.victim.receive(self.channel)[0]

    def leak(self, secret: bytes) -> InPlaceLeakReport:
        self.victim.plant(secret)
        start = self.victim.calls
        recovered = bytearray()
        for index in range(len(secret)):
            x = self.victim.secret_x(index)
            byte = self._leak_byte(x)
            if byte is None:
                byte = self._leak_byte(x) or 0
            recovered.append(byte)
        return InPlaceLeakReport(
            recovered=bytes(recovered),
            expected=secret,
            victim_invocations=self.victim.calls - start,
        )
