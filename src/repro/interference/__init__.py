"""Deterministic system-interference modeling (docs/interference.md).

The real-hardware attacks in the paper survive DVFS jitter, scheduler
preemption, SMT co-runners and sub-1% RDPRU noise; the simulated attack
stack of :mod:`repro.attacks` historically ran on a perfectly quiet
machine.  This package models the adversarial environment:

* :class:`InterferenceProfile` — one dataclass naming every noise knob
  (co-runner memory traffic, preemption rate, timer drift/jitter, PMC
  sampling noise) with the named presets ``quiet``, ``desktop``,
  ``noisy-neighbor`` and ``adversarial``;
* :class:`InterferenceModel` — a seeded model attached to a
  :class:`~repro.cpu.machine.Machine` that injects those disturbances
  around every program run, deterministically (same profile + seed =
  byte-identical campaign, whatever ``--jobs``).

The hardened attack protocols (robust calibration, bounded retries,
framing resync — see docs/interference.md) are what make the attacks
degrade gracefully instead of silently mis-extracting under it.
"""
