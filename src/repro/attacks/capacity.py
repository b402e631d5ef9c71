"""Capacity / error-rate measurement for the covert channels.

One measurement sends a seeded payload through a transport with a given
symbol width and repetition factor, framed by the sync preamble, and
reports both the *raw* symbol error rate on the wire and the *corrected*
byte error rate after repetition decode — plus throughput in simulated
cycles, converted to bits/s at the modeled clock (the same convention
the Section V experiments use).

The sent stream is known in-simulation, so raw errors are measured
positionally; a real attacker sees only the corrected payload, which is
exactly what the corrected columns report.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.attacks import coding
from repro.attacks.channels import (
    CacheLineChannel,
    NoisyChannel,
    StlPredictorChannel,
    SymbolChannel,
)
from repro.cpu.machine import Machine
from repro.errors import AttackError
from repro.interference.model import InterferenceModel
from repro.interference.profile import get_profile
from repro.telemetry.metrics import registry

__all__ = [
    "CHANNEL_KINDS",
    "CapacityConfig",
    "CapacityReport",
    "build_channel",
    "measure_capacity",
]

#: Transport kinds ``build_channel`` understands.
CHANNEL_KINDS = ("stl", "cache")

#: Idle lead-in symbols prepended to every transmission: the receiver
#: demonstrably acquires sync from the preamble, not from counting.
_LEAD_SYMBOLS = 3


@dataclass(frozen=True)
class CapacityConfig:
    """One point in the capacity sweep."""

    channel: str = "stl"
    width: int = 2
    repeat: int = 1
    payload_bytes: int = 8
    noise: float = 0.0
    seed: int = 7
    preamble_len: int = 8
    #: Interference preset attached to the transport's machine (None =
    #: the historical quiet machine, byte-identical to older configs).
    interference: str | None = None
    #: Hardened receiver: resynchronize after a failed sync point
    #: instead of abandoning the stream (see ``coding.deframe_symbols``).
    resync: bool = False


@dataclass
class CapacityReport:
    """Measured outcome of one configuration."""

    config: CapacityConfig
    symbols_on_wire: int
    raw_symbol_errors: int
    corrected_byte_errors: int
    framing_failed: bool
    cycles: int
    clock_ghz: float
    handshake_attempts: list[int] = field(default_factory=list)
    #: Transport-level failure (e.g. the handshake died under
    #: interference); the report is then all-lost but still structured.
    failure: str | None = None

    @property
    def raw_symbol_error_rate(self) -> float:
        """Positional error rate on the wire; 0.0 on an empty wire (a
        fully-jammed transmission is reported through ``all_lost`` and
        the byte-error columns, not a division error)."""
        if not self.symbols_on_wire:
            return 0.0
        return self.raw_symbol_errors / self.symbols_on_wire

    @property
    def corrected_byte_error_rate(self) -> float:
        if not self.config.payload_bytes:
            return 0.0
        return self.corrected_byte_errors / self.config.payload_bytes

    @property
    def _seconds(self) -> float:
        return self.cycles / (self.clock_ghz * 1e9)

    @property
    def gross_bits_per_second(self) -> float:
        """Wire throughput: every transmitted symbol bit counts.  Zero
        elapsed cycles means nothing measurably moved — reported as 0.0
        (finite and JSON-safe), not infinity."""
        bits = self.symbols_on_wire * self.config.width
        return bits / self._seconds if self._seconds else 0.0

    @property
    def goodput_bits_per_second(self) -> float:
        """Correct payload bits delivered per second (after decode)."""
        good = self.config.payload_bytes - self.corrected_byte_errors
        return good * 8 / self._seconds if self._seconds else 0.0

    @property
    def recovered_bytes(self) -> int:
        """The partial result: payload bytes that survived decode."""
        return self.config.payload_bytes - self.corrected_byte_errors

    @property
    def all_lost(self) -> bool:
        """True when nothing of the payload got through — the structured
        outcome a fully-jammed channel reports."""
        return self.recovered_bytes == 0

    @property
    def confidence(self) -> float:
        """Wire-quality confidence in [0, 1]: how much of the stream
        arrived positionally intact (0.0 for a dead transport)."""
        if not self.symbols_on_wire or self.failure is not None:
            return 0.0
        return max(0.0, 1.0 - self.raw_symbol_error_rate)

    def to_dict(self) -> dict:
        return {
            "channel": self.config.channel,
            "width": self.config.width,
            "repeat": self.config.repeat,
            "payload_bytes": self.config.payload_bytes,
            "noise": self.config.noise,
            "seed": self.config.seed,
            "interference": self.config.interference,
            "resync": self.config.resync,
            "symbols_on_wire": self.symbols_on_wire,
            "raw_symbol_errors": self.raw_symbol_errors,
            "raw_symbol_error_rate": round(self.raw_symbol_error_rate, 6),
            "corrected_byte_errors": self.corrected_byte_errors,
            "corrected_byte_error_rate": round(self.corrected_byte_error_rate, 6),
            "recovered_bytes": self.recovered_bytes,
            "all_lost": self.all_lost,
            "confidence": round(self.confidence, 6),
            "framing_failed": self.framing_failed,
            "failure": self.failure,
            "cycles": self.cycles,
            "gross_bits_per_second": round(self.gross_bits_per_second, 1),
            "goodput_bits_per_second": round(self.goodput_bits_per_second, 1),
            "handshake_attempts": self.handshake_attempts,
        }


def build_channel(config: CapacityConfig) -> SymbolChannel:
    """Construct the configured transport on a fresh seeded machine."""
    machine = Machine(seed=config.seed)
    if config.interference is not None:
        InterferenceModel(
            get_profile(config.interference, seed=config.seed)
        ).attach(machine)
    if config.channel == "stl":
        channel: SymbolChannel = StlPredictorChannel(machine, width=config.width)
    elif config.channel == "cache":
        channel = CacheLineChannel(machine, width=config.width)
    else:
        raise ValueError(
            f"unknown channel kind {config.channel!r} (know {CHANNEL_KINDS})"
        )
    if config.noise:
        channel = NoisyChannel(channel, config.noise, seed=config.seed)
    return channel


def measure_capacity(config: CapacityConfig) -> CapacityReport:
    """Send one framed seeded payload and measure both error rates."""
    channel = build_channel(config)
    rng = random.Random(config.seed)
    payload = bytes(rng.randrange(256) for _ in range(config.payload_bytes))
    symbols = coding.bytes_to_symbols(payload, config.width)
    framed = coding.frame_symbols(
        symbols, config.width, config.preamble_len, config.repeat
    )
    stream = [0] * _LEAD_SYMBOLS + framed

    thread = channel.machine.core.thread(0)
    start = thread.cycles
    failure = None
    try:
        received = channel.transfer(stream)
    except AttackError as exc:
        # The transport itself died (e.g. the lane handshake could not
        # validate under interference): a structured all-lost report.
        received = []
        failure = f"{type(exc).__name__}: {exc}"
    cycles = thread.cycles - start

    raw_errors = sum(a != b for a, b in zip(stream, received))
    framing_failed = failure is not None
    byte_errors = config.payload_bytes
    if failure is None:
        try:
            decoded = coding.deframe_symbols(
                received,
                config.width,
                config.preamble_len,
                config.repeat,
                resync=config.resync,
            )
            recovered = coding.symbols_to_bytes(
                decoded, config.width, config.payload_bytes
            )
            byte_errors = sum(a != b for a, b in zip(recovered, payload))
        except (coding.FramingError, ValueError):
            framing_failed = True
    registry().counter("attack.capacity.symbols").inc(len(stream))
    registry().counter("attack.capacity.raw_errors").inc(raw_errors)
    registry().counter("attack.capacity.byte_errors").inc(byte_errors)
    report = CapacityReport(
        config=config,
        symbols_on_wire=len(stream),
        raw_symbol_errors=raw_errors,
        corrected_byte_errors=byte_errors,
        framing_failed=framing_failed,
        cycles=cycles,
        clock_ghz=channel.machine.core.model.clock_ghz,
        handshake_attempts=list(getattr(channel, "handshake_attempts", []) or
                                getattr(getattr(channel, "inner", None),
                                        "handshake_attempts", [])),
        failure=failure,
    )
    if report.all_lost:
        registry().counter("attack.degraded").inc()
    return report
