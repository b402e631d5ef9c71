"""Symbol transports over the two side channels the paper exposes.

Both transports move ``width``-bit symbols between a sender process and
a receiver process in lockstep (half-duplex scheduling on one hardware
thread — every hand-over is a context switch, which flushes PSFP;
neither channel relies on it):

* :class:`StlPredictorChannel` — ``width`` parallel SSBP bit lanes; at
  ``width=1`` it is the paper's Vulnerability 4 covert channel (Section
  IV-D).  No shared memory, no cache lines: each lane is a sender stld
  whose predictor entry the receiver found by code sliding (at most
  4096 attempts per lane, Vulnerability 2).
* :class:`CacheLineChannel` — a Flush+Reload transport over a shared
  mapping with ``2**width`` page-strided slots; one victim-free cache
  transmission per symbol.

:class:`NoisyChannel` wraps either with seeded symbol corruption, which
models the classification noise a real (DVFS-jittered, preempted)
attacker sees and gives the repetition code something to correct.
"""

from __future__ import annotations

import random
from typing import Protocol

from repro.attacks.collision import SsbpCollisionFinder
from repro.attacks.flush_reload import FlushReloadChannel
from repro.attacks.runtime import AttackerStld
from repro.cpu.isa import Halt, Load, Program
from repro.cpu.machine import Machine
from repro.errors import AttackError
from repro.mem.physical import PAGE_SIZE
from repro.osm.address_space import Perm
from repro.telemetry.metrics import registry

__all__ = [
    "SymbolChannel",
    "StlPredictorChannel",
    "CacheLineChannel",
    "NoisyChannel",
]

#: Pages the receiver slides over to find each lane's colliding probe.
_RX_SLIDE_PAGES = 8


class SymbolChannel(Protocol):
    """What the capacity harness needs from a transport."""

    machine: Machine
    width: int

    @property
    def arity(self) -> int: ...

    def transfer(self, symbols: list[int]) -> list[int]: ...


class StlPredictorChannel:
    """``width`` SSBP bit lanes between two unrelated processes.

    Lane ``i`` is a sender stld placed at a distinct page offset (the
    offset bits enter the selection hash linearly, so distinct offsets
    in one page guarantee distinct predictor entries); the receiver
    code-slides once per lane to find a colliding probe.  A set bit is
    sent by charging the lane's C3, a clear bit by charging a decoy
    entry so per-symbol timing stays bit-independent.
    """

    def __init__(self, machine: Machine | None = None, width: int = 2) -> None:
        if not 1 <= width <= 8:
            raise ValueError(f"STL channel width must be in 1..8, got {width}")
        self.machine = machine or Machine(seed=1234)
        self.width = width
        kernel = self.machine.kernel
        self.sender_process = kernel.create_process("stl-chan-sender")
        self.receiver_process = kernel.create_process("stl-chan-receiver")
        self.sender = AttackerStld(self.machine, self.sender_process, slide_pages=2)
        self.receiver = AttackerStld(
            self.machine, self.receiver_process, slide_pages=_RX_SLIDE_PAGES
        )
        #: Lane transmitters: distinct offsets in the sender's first
        #: slide page; the decoy lives in the second page.
        self.tx_programs = [
            self.sender.place_at(self.sender.slide_base + 512 + lane * 256)
            for lane in range(width)
        ]
        self.decoy_program = self.sender.place_at(
            self.sender.slide_base + PAGE_SIZE + 512
        )
        self.rx_programs: list[Program] = []
        self.handshake_attempts: list[int] = []
        self.symbols_transferred = 0

    @property
    def arity(self) -> int:
        return 1 << self.width

    # ------------------------------------------------------------------
    def handshake(self) -> list[int]:
        """Receiver slides once per lane; returns per-lane attempt counts."""
        self.rx_programs = []
        self.handshake_attempts = []
        for tx in self.tx_programs:
            finder = SsbpCollisionFinder(
                self.receiver, recharge=lambda tx=tx: self.sender.charge_c3(tx)
            )
            found = finder.find()
            self.receiver.drain_c3(found.program)
            self.rx_programs.append(found.program)
            self.handshake_attempts.append(found.attempts)
        if len({program.base_iva for program in self.rx_programs}) != self.width:
            raise AttackError("lane handshakes converged on one probe placement")
        registry().counter("attack.channel.handshake_probes").inc(
            sum(self.handshake_attempts)
        )
        return self.handshake_attempts

    # ------------------------------------------------------------------
    def _send(self, symbol: int) -> None:
        for lane, tx in enumerate(self.tx_programs):
            if symbol >> lane & 1:
                self.sender.charge_c3(tx)
            else:
                self.sender.charge_c3(self.decoy_program)

    def _receive(self) -> int:
        symbol = 0
        for lane, rx in enumerate(self.rx_programs):
            symbol |= self.receiver.read_bit(rx) << lane
        return symbol

    def transfer(self, symbols: list[int]) -> list[int]:
        """Send a symbol stream; returns what the receiver decoded."""
        if not self.rx_programs:
            self.handshake()
        received = []
        for symbol in symbols:
            self._send(symbol)
            received.append(self._receive())
        self.symbols_transferred += len(symbols)
        registry().counter("attack.channel.symbols").inc(len(symbols))
        return received


class CacheLineChannel:
    """Flush+Reload symbol transport over a shared mapping.

    The receiver owns a ``2**width``-slot page-strided probe buffer and
    shares it read-only with the sender; a symbol is one sender load of
    slot ``s``, received by flushing before and timing reloads after.
    An unreadable round (zero or multiple hot slots) is an *erasure*,
    counted and decoded as symbol 0 — the repetition layer's job.
    """

    def __init__(self, machine: Machine | None = None, width: int = 4) -> None:
        if not 1 <= width <= 8:
            raise ValueError(f"cache channel width must be in 1..8, got {width}")
        self.machine = machine or Machine(seed=1234)
        self.width = width
        kernel = self.machine.kernel
        self.receiver_process = kernel.create_process("cache-chan-receiver")
        self.sender_process = kernel.create_process("cache-chan-sender")
        self.receiver_base = kernel.map_anonymous(
            self.receiver_process, pages=self.arity
        )
        self.sender_base = kernel.map_shared(
            self.sender_process,
            self.receiver_process,
            self.receiver_base,
            pages=self.arity,
            perms=Perm.R,
        )
        self.reloader = FlushReloadChannel(
            self.machine, self.receiver_process, self.receiver_base,
            slots=self.arity,
        )
        self._touch_program = self.machine.load_program(
            self.sender_process,
            Program([Load("x", base="addr"), Halt()], name="cache-chan-touch"),
        )
        self.erasures = 0
        self.symbols_transferred = 0

    @property
    def arity(self) -> int:
        return 1 << self.width

    # ------------------------------------------------------------------
    def _send(self, symbol: int) -> None:
        self.machine.run(
            self.sender_process,
            self._touch_program,
            {"addr": self.sender_base + (symbol & (self.arity - 1)) * PAGE_SIZE},
        )

    def transfer(self, symbols: list[int]) -> list[int]:
        received = []
        for symbol in symbols:
            self.reloader.flush_all()
            self._send(symbol)
            slot = self.reloader.receive()
            if slot is None:
                self.erasures += 1
                registry().counter("attack.channel.erasures").inc()
                slot = 0
            received.append(slot)
        self.symbols_transferred += len(symbols)
        registry().counter("attack.channel.symbols").inc(len(symbols))
        return received


class NoisyChannel:
    """Seeded symbol corruption around any transport.

    With probability ``flip_probability`` a received symbol is replaced
    by a uniformly random one (which may equal the original — the
    standard symmetric-channel convention).  Deterministic for a fixed
    seed, independent of the wrapped transport's own randomness.
    """

    def __init__(
        self, inner: SymbolChannel, flip_probability: float, seed: int = 0
    ) -> None:
        if not 0.0 <= flip_probability <= 1.0:
            raise ValueError(f"flip probability out of range: {flip_probability}")
        self.inner = inner
        self.machine = inner.machine
        self.width = inner.width
        self.flip_probability = flip_probability
        self.rng = random.Random(seed)
        self.flips = 0

    @property
    def arity(self) -> int:
        return 1 << self.width

    def transfer(self, symbols: list[int]) -> list[int]:
        received = self.inner.transfer(symbols)
        out = []
        for symbol in received:
            if self.rng.random() < self.flip_probability:
                symbol = self.rng.randrange(self.arity)
                self.flips += 1
            out.append(symbol)
        return out
