"""Behaviour-preservation gate for performance work on the core.

:mod:`repro.bench.equivalence` digests every observable output
(experiment artifacts, the pinned fuzz corpus replayed under every
mitigation, golden telemetry traces) and requires the digests to stay
byte-identical to ``benchmarks/GOLDEN.json`` / ``GOLDEN_fast.json``.
The same check holds each experiment result to its paper claim
(``PAPER_CLAIMS``), so one run verifies both behaviour and findings.
Throughput is measured end to end by ``benchmarks/e2e`` (see
``docs/performance.md``).
"""
