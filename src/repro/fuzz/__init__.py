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
