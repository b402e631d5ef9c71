"""CPU model: micro-ISA, speculative pipeline, SMT threads, PMCs."""

from repro.cpu.core import Core
from repro.cpu.isa import (
    Alu,
    AluImm,
    Clflush,
    Halt,
    Imul,
    ImulImm,
    Instruction,
    Jz,
    Label,
    Load,
    Mfence,
    Mov,
    MovImm,
    Pad,
    Program,
    Rdpru,
    Store,
)
from repro.cpu.machine import Machine
from repro.cpu.pipeline import FAULT_WINDOW, Pipeline, RunResult, StldEvent
from repro.cpu.pmc import Pmc, PmcEvent
from repro.cpu.thread import HardwareThread

__all__ = [
    "Alu",
    "AluImm",
    "Clflush",
    "Core",
    "FAULT_WINDOW",
    "Halt",
    "HardwareThread",
    "Imul",
    "ImulImm",
    "Instruction",
    "Jz",
    "Label",
    "Load",
    "Machine",
    "Mfence",
    "Mov",
    "MovImm",
    "Pad",
    "Pipeline",
    "Pmc",
    "PmcEvent",
    "Program",
    "Rdpru",
    "RunResult",
    "Store",
    "StldEvent",
]
