"""The Flush+Reload cache covert channel [Yarom & Falkner, 50].

The Spectre-STL attack encodes the leaked byte as a touched cache line
inside a 256-slot, page-strided probe array; the attacker flushes every
slot, lets the victim run, then times a reload of each slot — the fast
one names the byte.
"""

from __future__ import annotations

from repro.cpu.isa import Clflush, Halt, Load, MovImm, Program
from repro.cpu.machine import Machine
from repro.errors import AttackError
from repro.osm.process import Process
from repro.revng.timing import mad, median

__all__ = ["FlushReloadChannel"]

#: Hit/miss sample pairs per robust calibration.
_ROBUST_SAMPLES = 7
#: Bytes between probe slots: one page.
STRIDE = 4096


class FlushReloadChannel:
    """Flush+Reload over a page-strided probe array."""

    def __init__(
        self,
        machine: Machine,
        process: Process,
        base_va: int,
        slots: int = 256,
        robust: bool | None = None,
    ) -> None:
        self.machine = machine
        self.process = process
        self.base_va = base_va
        self.slots = slots
        #: ``robust=None`` follows the machine, as :class:`AttackerStld`
        #: does.  The quiet protocol is the original single-pair midpoint
        #: calibration; the robust one takes the median/MAD of several
        #: pairs, which a preempted probe cannot skew.
        self.robust = machine.noisy if robust is None else robust
        #: Hit population center from the latest calibration — the scale
        #: the per-read confidence score normalizes against.
        self.hit_center = 0.0
        instructions = [MovImm("base", self.base_va)]
        instructions += [
            Clflush(base="base", offset=slot * STRIDE)
            for slot in range(self.slots)
        ]
        instructions.append(Halt())
        self._flush_program = machine.load_program(
            process, Program(instructions, name="flush-all")
        )
        self._probe_program = machine.load_program(
            process,
            Program([Load("x", base="addr"), Halt()], name="reload"),
        )
        self.threshold = self._calibrate_threshold()

    # ------------------------------------------------------------------
    def _run(self, program: Program, regs: dict | None = None) -> int:
        cycles = self.machine.run(self.process, program, regs).cycles
        interference = self.machine.interference
        if interference is not None:
            cycles = interference.timer(cycles)
        return cycles

    def _probe(self, slot: int) -> int:
        return self._run(
            self._probe_program, {"addr": self.base_va + slot * STRIDE}
        )

    def _calibrate_threshold(self) -> int:
        """Threshold between cached and flushed reloads of slot 0.

        The quiet protocol is the exact historical calibration: midpoint
        of a single hit and a single miss.  The robust one summarizes
        seven of each by medians and checks median/MAD separability, so
        an interference burst landing on one probe cannot poison the
        threshold for the whole run.
        """
        hits: list[int] = []
        misses: list[int] = []
        for _ in range(_ROBUST_SAMPLES if self.robust else 1):
            self._probe(0)              # fill
            hits.append(self._probe(0))  # cached
            self.flush_all()
            misses.append(self._probe(0))
        hit_center = median(hits)
        miss_center = median(misses)
        scale = max(1.0, mad(hits) + mad(misses))
        if miss_center - hit_center <= (scale if self.robust else 0.0):
            raise AttackError("flush+reload timing is not separable")
        self.hit_center = hit_center
        return int((hit_center + miss_center) // 2)

    def recalibrate(self) -> int:
        """Re-derive the hit/miss threshold against the current clock
        (drift makes a stale threshold misclassify whole rounds)."""
        self.threshold = self._calibrate_threshold()
        return self.threshold

    # ------------------------------------------------------------------
    def flush_all(self) -> None:
        """``clflush`` every slot (the attacker's pre-victim step)."""
        self._run(self._flush_program)

    def reload_times(self) -> list[int]:
        """Timed reload of every slot, in slot order."""
        return [self._probe(slot) for slot in range(self.slots)]

    def receive(self) -> int | None:
        """The slot whose reload was a cache hit, or None when no slot
        (or more than two slots) signals — a failed round."""
        times = self.reload_times()
        hits = [slot for slot, t in enumerate(times) if t < self.threshold]
        if len(hits) == 1:
            return hits[0]
        return None

    def __repr__(self) -> str:
        return (
            f"FlushReloadChannel(slots={self.slots}, stride={STRIDE}, "
            f"threshold={self.threshold})"
        )
