"""Reverse-engineering toolkit: the paper's black-box methodology.

Tools for probing the simulated hardware exactly the way the paper probes
silicon: stld sequences and their run-length notation, timing-based
execution-type classification, counter readout by probing, eviction-set
sizing, state-machine validation, and hash-function recovery.
"""

from repro.revng.hash_recovery import (
    collect_colliding_pairs,
    fold_hash,
    infer_stride,
    recover_fold_hash,
    stride_parity_ok,
)
from repro.revng.organization import EvictionCurve, OrganizationExperiment
from repro.revng.probes import PredictorProber
from repro.revng.report import PredictorDossier, ReverseEngineeringCampaign
from repro.revng.sequences import (
    SequenceSyntaxError,
    StldToken,
    format_sequence,
    format_types,
    parse,
    parse_types,
    to_bools,
)
from repro.revng.state_infer import ModelValidator, ValidationReport, refine_types
from repro.revng.stld import (
    StldHarness,
    StldRunner,
    StldVariant,
    build_stld,
    load_instruction_index,
    store_instruction_index,
)
from repro.revng.timing import (
    CALIBRATION_SEQUENCE,
    CalibrationResult,
    CentroidClassifier,
    TimingClassifier,
    collect_calibration,
)

__all__ = [
    "CALIBRATION_SEQUENCE",
    "PredictorDossier",
    "ReverseEngineeringCampaign",
    "CalibrationResult",
    "EvictionCurve",
    "ModelValidator",
    "OrganizationExperiment",
    "PredictorProber",
    "SequenceSyntaxError",
    "StldHarness",
    "StldRunner",
    "StldToken",
    "StldVariant",
    "CentroidClassifier",
    "TimingClassifier",
    "ValidationReport",
    "collect_calibration",
    "build_stld",
    "collect_colliding_pairs",
    "fold_hash",
    "format_sequence",
    "format_types",
    "infer_stride",
    "load_instruction_index",
    "parse",
    "parse_types",
    "recover_fold_hash",
    "refine_types",
    "store_instruction_index",
    "stride_parity_ok",
    "to_bools",
]
