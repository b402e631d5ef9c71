"""repro — a simulation-backed reproduction of
"Uncovering and Exploiting AMD Speculative Memory Access Predictors for
Fun and Profit" (HPCA 2024).

The package models the AMD Zen 3 speculative memory-access machinery the
paper reverse engineers (PSFP and SSBP predictors, TABLE I state machine,
IPA-selection hash), a small out-of-order core with transient execution,
a Linux-like OS layer, and the paper's attacks (out-of-place Spectre-STL,
Spectre-CTL, SSBP fingerprinting) plus the mitigations it evaluates.

Quickstart::

    from repro.core.counters import CounterState
    from repro.core.state_machine import run_sequence
    from repro.revng.sequences import format_types, to_bools

    types, state = run_sequence(CounterState(), to_bools("7n, a, 7n"))
    print(format_types(types))   # -> "7H, G, 4E, 3H"

See README.md for the architecture overview and DESIGN.md for the
simulation-vs-silicon substitution map.
"""

__version__ = "1.0.0"
