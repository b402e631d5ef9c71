"""Workloads: SPEC2017-like instruction mixes and CNN inference victims."""

from repro.workloads.cnn import (
    CNN_MODELS,
    CnnModel,
    CnnVictim,
    LayerSpec,
)
from repro.workloads.spec2017 import (
    SPEC2017,
    WorkloadSpec,
    build_workload,
)

__all__ = [
    "CNN_MODELS",
    "CnnModel",
    "CnnVictim",
    "LayerSpec",
    "SPEC2017",
    "WorkloadSpec",
    "build_workload",
]
