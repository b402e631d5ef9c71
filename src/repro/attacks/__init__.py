"""Attacks (paper Section V): Spectre-STL, Spectre-CTL, web, fingerprinting.

All attack code obeys the paper's threat model: an unprivileged attacker
with its own memory/code placement, ``clflush``/``rdpru``, and timing —
no physical addresses, no PTEditor (those privileged tools live in
:mod:`repro.revng`, the reverse-engineering phase).
"""

from repro.attacks.address_leak import AddressMappingLeak, RelativeHashLeak
from repro.attacks.aslr import AslrDerandomizer, AslrReport
from repro.attacks.capacity import (
    CapacityConfig,
    CapacityReport,
    build_channel,
    measure_capacity,
)
from repro.attacks.channels import (
    CacheLineChannel,
    NoisyChannel,
    StlPredictorChannel,
)
from repro.attacks.collision import CollisionResult, SsbpCollisionFinder
from repro.attacks.extraction import ExtractionReport, SecretExtraction, run_suite
from repro.attacks.fingerprint import SsbpFingerprinter, collect_dataset
from repro.attacks.flush_reload import FlushReloadChannel
from repro.attacks.victim_gadgets import (
    StlVictim,
    flush_line_program,
    spectre_ctl_gadget,
    spectre_stl_gadget,
)
from repro.attacks.runtime import AttackerStld
from repro.attacks.spectre_ctl import CtlLeakReport, SpectreCTL
from repro.attacks.spectre_stl import LeakReport, SpectreSTL
from repro.attacks.spectre_stl_inplace import InPlaceLeakReport, SpectreSTLInPlace
from repro.attacks.web import BrowserTimer, SpectreCTLWeb

__all__ = [
    "AddressMappingLeak",
    "AslrDerandomizer",
    "AslrReport",
    "AttackerStld",
    "BrowserTimer",
    "CacheLineChannel",
    "CapacityConfig",
    "CapacityReport",
    "CollisionResult",
    "CtlLeakReport",
    "ExtractionReport",
    "FlushReloadChannel",
    "InPlaceLeakReport",
    "LeakReport",
    "NoisyChannel",
    "RelativeHashLeak",
    "SecretExtraction",
    "SpectreCTL",
    "SpectreCTLWeb",
    "SpectreSTL",
    "SpectreSTLInPlace",
    "SsbpCollisionFinder",
    "SsbpFingerprinter",
    "StlPredictorChannel",
    "StlVictim",
    "build_channel",
    "collect_dataset",
    "flush_line_program",
    "measure_capacity",
    "run_suite",
    "spectre_ctl_gadget",
    "spectre_stl_gadget",
]
