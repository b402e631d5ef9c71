"""Small statistics helpers used by the experiments.

Gaussian fitting (for the Fig 7 collision-attempt histogram), histogram
vectors (Fig 11 fingerprints) and leak-metric containers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

__all__ = ["GaussianFit", "fit_gaussian", "frequency_vector", "mean", "stdev"]


def mean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)


def stdev(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    center = mean(values)
    return math.sqrt(sum((v - center) ** 2 for v in values) / (len(values) - 1))


@dataclass(frozen=True)
class GaussianFit:
    """A fitted normal distribution plus a goodness heuristic."""

    mu: float
    sigma: float
    samples: int


def fit_gaussian(values: Sequence[float]) -> GaussianFit:
    """Moment-matching normal fit (the paper fits the Fig 7 histogram)."""
    return GaussianFit(mu=mean(values), sigma=stdev(values), samples=len(values))


def frequency_vector(values: Sequence[int]) -> list[float]:
    """Relative frequencies of ``values`` over the bins 1..35.

    The paper's fingerprint vector: C3 values from 1 to 35 (zeros —
    untrained entries — are excluded so the signature reflects activity),
    normalized to sum to 1.  All-zero rounds produce the zero vector.
    """
    bins = [0] * 35
    for value in values:
        if 1 <= value <= 35:
            bins[value - 1] += 1
    total = sum(bins)
    if total == 0:
        return [0.0] * len(bins)
    return [count / total for count in bins]
