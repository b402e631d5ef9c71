"""Spectre-CTL in a web browser (paper Section V-C.2).

The paper ports the attack into Chrome 86 via WebAssembly: the stld
becomes a wasm store-load pair, the timer is a hand-built ~10 ns counter,
and ``clflush`` is unavailable (an Evict+Reload-style eviction set delays
the store's address input instead).  The SSBP side channel replaces the
usual cache covert channel.

We model the three browser constraints explicitly:

* :class:`BrowserTimer` — quantizes readings to 10 ns ticks and
  occasionally jitters by a whole tick (interrupts, clamping), which is
  why the browser attack verifies covert hits before accepting them;
* eviction-set flushing that only *probabilistically* removes the
  victim's ``idx`` line (a timing-built eviction set is imperfect) —
  missed evictions close the transient window and cost accuracy;
* everything else (collision sliding, draining, probing) is the native
  attack unchanged, because SSBP state is observable with any timer that
  separates a stall from a bypass (~12 ns at 3.7 GHz).

The paper reports ~170 B/s at 81.1% accuracy — markedly below the native
attack; the same ordering (web < native, web accuracy < native accuracy)
emerges here from the modeled constraints.
"""

from __future__ import annotations

from repro.attacks.runtime import AttackerStld
from repro.attacks.spectre_ctl import SpectreCTL
from repro.cpu.machine import Machine

__all__ = ["BrowserTimer", "SpectreCTLWeb"]

#: Probability that one eviction-set traversal actually removes the idx
#: line from the whole hierarchy (DESIGN.md substitution: stands in for
#: a timing-built, hence imperfect, eviction set).
EVICT_SUCCESS = 0.85


class BrowserTimer:
    """A ~10 ns resolution timer with occasional whole-tick jitter."""

    def __init__(
        self,
        machine: Machine,
        resolution_ns: float = 10.0,
        double_tick_prob: float = 0.02,
    ) -> None:
        self.tick_cycles = max(
            1, round(resolution_ns * machine.core.model.clock_ghz)
        )
        self.double_tick_prob = double_tick_prob
        self._rng = machine.core.rng

    def __call__(self, cycles: int) -> int:
        ticks = round(cycles / self.tick_cycles)
        if self._rng.random() < self.double_tick_prob:
            ticks += self._rng.choice((-2, 2))
        return max(0, ticks) * self.tick_cycles


class SpectreCTLWeb(SpectreCTL):
    """The browser port: coarse timer, eviction sets, verified hits."""

    def __init__(self) -> None:
        machine = Machine(seed=2077)
        self._timer = BrowserTimer(machine)
        super().__init__(machine=machine)
        # A coarse timer can misread H as F; demand one confirmation of
        # covert hits and longer verification during sliding, and charge
        # longer because eviction-set traversals miss some windows.
        self.verify_hits = 1
        self.charge_runs = 9
        self.collision_verify_runs = 4

    def _create_attacker(self, slide_pages: int) -> AttackerStld:
        attacker = AttackerStld(
            self.machine,
            self.attacker_process,
            slide_pages=slide_pages,
            timer=self._timer,
        )
        attacker.drain_confirmations = 2  # survive single-tick misreads
        return attacker

    def _flush_idx(self) -> None:
        """Eviction-set traversal instead of clflush: succeeds with
        probability :data:`EVICT_SUCCESS`; a miss leaves the idx line cached
        and the next window never opens (a wasted trial)."""
        if self.machine.core.rng.random() < EVICT_SUCCESS:
            super()._flush_idx()
