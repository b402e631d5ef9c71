"""End-to-end Spectre-STL secret extraction, evaluated per mitigation.

This is the exploitation capstone of Section V-B: a victim process owns
a secret buffer; the attacker mistrains the store-to-load predictors
through a validated hash collision (:class:`~repro.attacks.spectre_stl.
SpectreSTL`) and transmits out-of-bounds bytes through the cache
channel.  The byte reads, their votes and retries are
:meth:`SpectreSTL.leak <repro.attacks.spectre_stl.SpectreSTL.leak>`'s;
this module is the campaign around them: machine, interference,
mitigation, failure capture and the report.

The same campaign runs under each mitigation, giving the measured
degradation story the paper's Section VI argues qualitatively:

* ``none`` — full recovery, one victim run per byte read;
* ``ssbd`` — speculative store bypass disable pins every load behind
  its stores: the timing classes the attacker calibrated collapse, the
  trivially "sticky" probes never validate, and the attack dies in the
  collision phase;
* ``fence`` — an mfence after every victim store closes the transient
  window *and* starves the predictors (no aliasing events, nothing to
  charge): the sliding scan burns its whole budget without one hit.

Failures are measurements, not errors: a failed campaign reports zero
accuracy plus the cycles the attacker wasted, which is exactly the
cycles-per-byte inflation the mitigation buys.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.attacks.leak_report import TimedSecretLeak
from repro.attacks.spectre_stl import SpectreSTL
from repro.cpu.isa import Program
from repro.cpu.machine import Machine
from repro.errors import ReproError
from repro.interference.model import InterferenceModel
from repro.interference.profile import InterferenceProfile, get_profile
from repro.mitigations import MITIGATIONS
from repro.mitigations.fences import fence_after_stores
from repro.attacks.victim_gadgets import spectre_stl_gadget
from repro.telemetry.metrics import registry

__all__ = ["ExtractionReport", "SecretExtraction", "run_suite"]

#: Sliding-scan give-up budget (probe attempts per candidate scan).  A
#: page holds exactly one colliding offset, but successive scans resume
#: just past the previous hit, so the next hit can sit almost two pages
#: away; ~8500 covers that worst case plus slack.  Against a fenced
#: victim the whole budget is wasted — that cost is part of the
#: measurement.
DEFAULT_COLLISION_BUDGET = 8500


@dataclass
class ExtractionReport(TimedSecretLeak):
    """Measured outcome of one extraction campaign."""

    mitigation: str
    redundancy: int
    validation_attempts: int
    failure: str | None = None
    #: Which interference preset was attached (None = unattached, the
    #: historical quiet machine).
    interference: str | None = None
    #: Whether the hardened protocols were allowed to engage.
    hardened: bool = True
    #: Calibrated per-byte confidence, aligned with ``recovered``.
    byte_confidence: list[float] = field(default_factory=list)
    #: Failed leak rounds that were retried (hardened path only).
    retries: int = 0
    #: Mid-campaign recalibrations triggered by confidence collapse.
    recalibrations: int = 0

    #: Bytes at or above this confidence count as confidently recovered.
    CONFIDENCE_FLOOR = SpectreSTL.CONFIDENCE_FLOOR

    @property
    def byte_errors(self) -> int:
        return len(self.expected) - round(self.accuracy * len(self.expected))

    @property
    def cycles_per_byte(self) -> float:
        return self.cycles / len(self.expected) if self.expected else 0.0

    @property
    def bytes_per_second(self) -> float:
        """Goodput: only correctly recovered bytes count."""
        return self._per_second(round(self.accuracy * len(self.expected)))

    @property
    def mean_confidence(self) -> float:
        if not self.byte_confidence:
            return 0.0
        return sum(self.byte_confidence) / len(self.byte_confidence)

    @property
    def low_confidence_bytes(self) -> int:
        """Bytes flagged below the confidence floor — the "2 low-
        confidence" part of a "14/16 bytes, 2 low-confidence" report."""
        return sum(1 for c in self.byte_confidence if c < self.CONFIDENCE_FLOOR)

    @property
    def confident_bytes(self) -> int:
        """The partial-result size: bytes recovered with confidence."""
        return len(self.byte_confidence) - self.low_confidence_bytes

    @property
    def degraded(self) -> bool:
        """True when the campaign completed but had to flag bytes as
        low-confidence — a partial result rather than a clean one."""
        return self.failure is None and self.low_confidence_bytes > 0

    def to_dict(self) -> dict:
        return {
            "mitigation": self.mitigation,
            "secret_bytes": len(self.expected),
            "recovered_hex": self.recovered.hex(),
            "expected_hex": self.expected.hex(),
            "accuracy": round(self.accuracy, 6),
            "byte_errors": self.byte_errors,
            "cycles": self.cycles,
            "cycles_per_byte": round(self.cycles_per_byte, 1),
            "bytes_per_second": round(self.bytes_per_second, 1),
            "redundancy": self.redundancy,
            "validation_attempts": self.validation_attempts,
            "failure": self.failure,
            "interference": self.interference,
            "hardened": self.hardened,
            "byte_confidence": [round(c, 4) for c in self.byte_confidence],
            "mean_confidence": round(self.mean_confidence, 4),
            "low_confidence_bytes": self.low_confidence_bytes,
            "confident_bytes": self.confident_bytes,
            "degraded": self.degraded,
            "retries": self.retries,
            "recalibrations": self.recalibrations,
        }


class SecretExtraction:
    """One seeded extraction campaign under one mitigation."""

    def __init__(
        self,
        seed: int = 2024,
        mitigation: str = "none",
        slide_pages: int = 16,
        redundancy: int = 1,
        collision_budget: int | None = DEFAULT_COLLISION_BUDGET,
        interference: InterferenceProfile | str | None = None,
        hardened: bool = True,
    ) -> None:
        if mitigation not in MITIGATIONS:
            raise ValueError(
                f"unknown mitigation {mitigation!r} (know {MITIGATIONS})"
            )
        self.mitigation = mitigation
        self.collision_budget = collision_budget
        self.hardened = hardened
        self.machine = Machine(seed=seed)
        profile: InterferenceProfile | None
        if isinstance(interference, str):
            # Preset by name: re-seed it from the campaign seed so the
            # disturbance schedule varies with the campaign like every
            # other seeded component.
            profile = get_profile(interference, seed=seed)
        else:
            profile = interference
        self.interference_profile = profile
        self.interference_model: InterferenceModel | None = None
        if profile is not None:
            self.interference_model = InterferenceModel(profile).attach(self.machine)
        gadget: Program | None = None
        if mitigation == "fence":
            gadget = Program(
                fence_after_stores(spectre_stl_gadget().instructions),
                name="stl-gadget-fenced",
            )
        self.attack = SpectreSTL(
            machine=self.machine,
            slide_pages=slide_pages,
            gadget=gadget,
            hardened=hardened,
            redundancy=redundancy,
        )
        if mitigation == "ssbd":
            # Machine-wide SSBD, enabled after the attacker calibrated
            # its timing classifier — the most attacker-favorable
            # ordering, and the attack still collapses.
            self.machine.core.set_ssbd(True)

    def run(self, secret: bytes) -> ExtractionReport:
        """Plant ``secret`` in the victim and run the whole campaign."""
        if not secret:
            raise ValueError("refusing to extract an empty secret")
        machine = self.machine
        attack = self.attack
        attack.victim.plant(secret)
        thread = machine.core.thread(0)
        start = thread.cycles
        failure = None
        recovered = bytes(len(secret))
        try:
            attack.find_collision(max_attempts=self.collision_budget)
            recovered = attack.leak(secret).recovered
        except ReproError as exc:
            failure = f"{type(exc).__name__}: {exc}"
        cycles = thread.cycles - start
        # A leak that failed part-way keeps the confidence of the bytes
        # it read; the rest (and a campaign with no collision) read 0.
        read = attack.byte_confidence
        report = ExtractionReport(
            mitigation=self.mitigation,
            expected=secret,
            recovered=recovered,
            cycles=cycles,
            clock_ghz=machine.core.model.clock_ghz,
            redundancy=attack.redundancy,
            validation_attempts=attack.validation_attempts,
            failure=failure,
            interference=(
                self.interference_profile.name
                if self.interference_profile is not None
                else None
            ),
            hardened=self.hardened,
            byte_confidence=read + [0.0] * (len(secret) - len(read)),
            retries=attack.retries,
            recalibrations=attack.recalibrations,
        )
        metrics = registry()
        metrics.counter("attack.extract.bytes").inc(len(secret))
        metrics.counter("attack.extract.byte_errors").inc(report.byte_errors)
        metrics.counter(f"attack.extract.campaigns.{self.mitigation}").inc()
        metrics.histogram("attack.extract.cycles_per_byte").observe(
            round(report.cycles_per_byte)
        )
        if report.degraded:
            metrics.counter("attack.degraded").inc()
        return report


def run_suite(
    secret: bytes,
    seed: int = 2024,
    mitigations: tuple[str, ...] = MITIGATIONS,
    slide_pages: int = 16,
    redundancy: int = 1,
    collision_budget: int | None = DEFAULT_COLLISION_BUDGET,
    interference: InterferenceProfile | str | None = None,
    hardened: bool = True,
) -> list[ExtractionReport]:
    """The same seeded campaign under each mitigation, fresh machine each."""
    return [
        SecretExtraction(
            seed=seed,
            mitigation=mitigation,
            slide_pages=slide_pages,
            redundancy=redundancy,
            collision_budget=collision_budget,
            interference=interference,
            hardened=hardened,
        ).run(secret)
        for mitigation in mitigations
    ]
