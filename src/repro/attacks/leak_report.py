"""What every secret-leaking attack reports, defined once.

Each attack's report extends these with its own fields; constructors
take keywords, so the base fields need no particular position.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["SecretLeak", "TimedSecretLeak"]


@dataclass
class SecretLeak:
    """The bytes an attack recovered, against the secret it targeted."""

    recovered: bytes
    expected: bytes

    @property
    def accuracy(self) -> float:
        if not self.expected:
            return 1.0
        good = sum(a == b for a, b in zip(self.recovered, self.expected))
        return good / len(self.expected)


@dataclass
class TimedSecretLeak(SecretLeak):
    """A leak plus the simulated cycles it took."""

    cycles: int
    clock_ghz: float

    def _per_second(self, count: int) -> float:
        seconds = self.cycles / (self.clock_ghz * 1e9)
        return count / seconds if seconds else float("inf")

    @property
    def bytes_per_second(self) -> float:
        return self._per_second(len(self.recovered))
