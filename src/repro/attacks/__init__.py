"""Attacks (paper Section V): Spectre-STL, Spectre-CTL, web, fingerprinting.

All attack code obeys the paper's threat model: an unprivileged attacker
with its own memory/code placement, ``clflush``/``rdpru``, and timing —
no physical addresses, no PTEditor (those privileged tools live in
:mod:`repro.revng`, the reverse-engineering phase).
"""
