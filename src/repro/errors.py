"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """A simulation component was configured with inconsistent parameters."""


class SegmentationFault(ReproError):
    """A simulated access touched an unmapped or forbidden virtual address.

    Mirrors a SIGSEGV delivered by the simulated kernel.  The faulting
    address and the access kind are preserved for fault-injection tests.
    """

    def __init__(self, address: int, access: str = "load") -> None:
        super().__init__(f"segmentation fault: {access} at {address:#x}")
        self.address = address
        self.access = access


class ProtectionFault(SegmentationFault):
    """A simulated access violated page permissions (mapped but forbidden)."""


class InvalidInstruction(ReproError):
    """The simulated core decoded an instruction it does not implement."""


class SimulationLimitExceeded(ReproError):
    """A simulated program ran past its instruction or cycle budget."""


class UnknownExperimentError(ConfigError):
    """An experiment name was not found in the campaign registry.

    Raised by :func:`repro.experiments.runner.run_experiment` (and the
    campaign scheduler) instead of ``SystemExit`` so that library callers
    can recover; like every ``ConfigError`` it exits 2 from a CLI.
    """

    def __init__(self, name: str, known: "list[str] | None" = None) -> None:
        self.name = name
        self.known = list(known or [])
        hint = f"; known: {', '.join(self.known)}" if self.known else ""
        super().__init__(f"unknown experiment {name!r}{hint}")


class ArtifactError(ReproError):
    """A result artifact or cache entry could not be read or validated."""


class CampaignInterrupted(ReproError):
    """A supervised campaign was interrupted (SIGINT/SIGTERM).

    Raised by :func:`repro.experiments.runner.run_campaign`,
    :func:`repro.fuzz.cli.run_fuzz_campaign`,
    :func:`repro.static.cli.run_scan_batch` and
    :func:`repro.static.crossval.run_crossval` once in-flight work has
    been drained.  ``partial`` carries whatever completed before the
    interrupt; ``checkpoint`` is the journal the next ``--resume`` run
    continues from, or ``None`` when the campaign kept none.  Every CLI
    translates this to exit code 3
    (:data:`repro.runtime.exitcodes.EXIT_INTERRUPTED`).
    """

    def __init__(
        self,
        message: str,
        *,
        partial: "object | None" = None,
        checkpoint: "object | None" = None,
    ) -> None:
        super().__init__(message)
        self.partial = partial
        self.checkpoint = checkpoint


class AttackError(ReproError):
    """An attack primitive could not complete (e.g. no collision found)."""


class CollisionNotFound(AttackError):
    """Code sliding exhausted its search space without finding a collision."""
