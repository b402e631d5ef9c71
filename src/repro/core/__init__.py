"""The paper's primary contribution: AMD speculative memory access predictors.

This package models the two predictors the paper reverse engineers —
PSFP (Predictive Store Forwarding Predictor) and SSBP (Speculative Store
Bypass Predictor) — along with their shared counter state machine
(TABLE I), the IPA-selection hash (Section III-C) and the per-platform
configuration (TABLE III).
"""

from repro.core.config import (
    CpuModel,
    LatencyModel,
    ZEN3_MODELS,
    default_model,
    get_model,
    zen2_model,
)
from repro.core.counters import (
    C0_MAX,
    C1_MAX,
    C2_MAX,
    C3_MAX,
    C4_MAX,
    CounterState,
)
from repro.core.exec_types import (
    PMC_PROFILE,
    TIMING_CLASS,
    ExecType,
    PmcProfile,
    TimingClass,
    classify_exec_type,
)
from repro.core.hashfn import (
    HASH_BITS,
    IPA_BITS,
    STRIDE,
    collision_offset,
    hash_from_frame_offset,
    ipa_hash,
    xor_profile,
)
from repro.core.predictor_unit import AccessResult, PredictorUnit
from repro.core.psfp import PSFP_ENTRIES, Psfp, PsfpEntry
from repro.core.spec_ctrl import PSFD_BIT, SSBD_BIT, SpecCtrl
from repro.core.ssbp import SSBP_SETS, SSBP_WAYS, Ssbp, SsbpEntry, set_index
from repro.core.state_machine import (
    PSF_C1_THRESHOLD,
    Prediction,
    StateName,
    Transition,
    classify_state,
    g_event_state,
    iter_sequence,
    predict,
    run_sequence,
    transition,
)

__all__ = [
    "AccessResult",
    "C0_MAX",
    "C1_MAX",
    "C2_MAX",
    "C3_MAX",
    "C4_MAX",
    "CounterState",
    "CpuModel",
    "ExecType",
    "HASH_BITS",
    "IPA_BITS",
    "LatencyModel",
    "PMC_PROFILE",
    "PSFD_BIT",
    "PSFP_ENTRIES",
    "PSF_C1_THRESHOLD",
    "PmcProfile",
    "Prediction",
    "PredictorUnit",
    "Psfp",
    "PsfpEntry",
    "SSBD_BIT",
    "SSBP_SETS",
    "SSBP_WAYS",
    "STRIDE",
    "SpecCtrl",
    "Ssbp",
    "SsbpEntry",
    "StateName",
    "TIMING_CLASS",
    "TimingClass",
    "Transition",
    "ZEN3_MODELS",
    "classify_exec_type",
    "classify_state",
    "collision_offset",
    "default_model",
    "g_event_state",
    "get_model",
    "hash_from_frame_offset",
    "ipa_hash",
    "iter_sequence",
    "predict",
    "run_sequence",
    "set_index",
    "transition",
    "xor_profile",
    "zen2_model",
]
