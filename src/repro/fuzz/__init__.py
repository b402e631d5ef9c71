"""Differential speculation fuzzing for the simulated AMD pipeline.

The subsystem answers two questions the paper's reproduction depends on:

* **Correctness** — does speculation (store bypassing, predictive store
  forwarding, branch misprediction) ever change *architectural* results?
  :mod:`~repro.fuzz.harness` dual-executes generated programs on the
  speculative :class:`~repro.cpu.pipeline.Pipeline` and the in-order
  :class:`~repro.cpu.reference.ReferenceInterpreter` and flags any
  disagreement.
* **Leakage** — can a secret that is only reachable transiently still be
  observed microarchitecturally, and do the mitigations stop it?
  :mod:`~repro.fuzz.oracle` runs each program under two secret fills and
  compares cache residency, PMCs and timing (AMuLeT-style).

Around those two checks: :mod:`~repro.fuzz.gen` (weighted, seeded program
generation), :mod:`~repro.fuzz.compare` (the shared architectural-state
comparator), :mod:`~repro.fuzz.shrink` (counterexample minimization),
:mod:`~repro.fuzz.corpus` (persistent replay corpus seeded with the
hand-written regression cases), :mod:`~repro.fuzz.findings`
(schema-versioned JSONL artifacts) and :mod:`~repro.fuzz.cli` (the
``repro-fuzz`` campaign engine).  See ``docs/fuzzing.md``.
"""

from repro.fuzz.compare import (
    Divergence,
    compare_architectural,
    rdpru_destinations,
    written_registers,
)
from repro.fuzz.corpus import (
    REGRESSION_ENTRIES,
    Corpus,
    CorpusEntry,
    replay_order,
)
from repro.fuzz.findings import Finding, read_findings, write_findings
from repro.fuzz.gen import (
    BUF_BYTES,
    BUF_PAGES,
    GENERATORS,
    REGS,
    build_program,
    fuzz_program,
    oracle_program,
    random_program,
)
from repro.fuzz.harness import (
    DualReport,
    chaos,
    check_case,
    check_entry,
    execute_program,
    run_dual,
)
from repro.fuzz.oracle import Observation, OracleReport
from repro.fuzz.shrink import shrink, shrink_report

__all__ = [
    # gen
    "BUF_BYTES",
    "BUF_PAGES",
    "GENERATORS",
    "REGS",
    "build_program",
    "fuzz_program",
    "oracle_program",
    "random_program",
    # compare
    "Divergence",
    "compare_architectural",
    "rdpru_destinations",
    "written_registers",
    # harness
    "DualReport",
    "chaos",
    "check_case",
    "check_entry",
    "execute_program",
    "run_dual",
    # oracle
    "Observation",
    "OracleReport",
    # shrink
    "shrink",
    "shrink_report",
    # corpus
    "REGRESSION_ENTRIES",
    "Corpus",
    "CorpusEntry",
    "replay_order",
    # findings
    "Finding",
    "read_findings",
    "write_findings",
]
