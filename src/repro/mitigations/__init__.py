"""Mitigations (paper Section VI).

* **SSBD** (:mod:`repro.mitigations.ssbd`) — serializes loads behind
  stores; stops everything, at the Fig 12 performance cost.
* **PSFD** — modeled faithfully as *ineffective*: the predictors keep
  functioning with the bit set (see
  :class:`repro.core.spec_ctrl.SpecCtrl` and Section VI-A).
* **Flush SSBP on context switch** — ``Machine(flush_ssbp_on_switch=True)``;
  stops cross-process SSBP attacks (Spectre-CTL, fingerprinting).
* **Randomized selection** — ``Machine(resalt_on_switch=True)``; re-keys
  the selection hash on every switch/syscall so code-sliding collisions
  go stale, stopping out-of-place attacks.
* **Fence insertion** (:mod:`repro.mitigations.fences`) — the software
  countermeasure: an ``mfence`` after every store serializes it against
  younger loads, so the predictors are never consulted.
* **Secure timer** (:mod:`repro.mitigations.secure_timer`) — denies the
  cycle resolution probing needs.

:data:`MITIGATIONS` names the configurations the campaign tools
(``repro-fuzz``, ``repro-scan``, ``repro-attack``) run a program under;
:func:`check_mitigation` is their one check of a requested name, and
:func:`parse_mitigations` applies it to a requested list.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import ConfigError

#: The countermeasure configurations a campaign runs each program under:
#: ``ssbd`` sets SPEC_CTRL.SSBD on the machine, ``fence`` puts an
#: ``mfence`` after every store of the program.
MITIGATIONS = ("none", "ssbd", "fence")


def check_mitigation(name: str) -> None:
    """Raise :class:`~repro.errors.ConfigError`, which every CLI reports
    as a usage error, unless ``name`` is one of :data:`MITIGATIONS`."""
    if name not in MITIGATIONS:
        raise ConfigError(
            f"unknown mitigation {name!r}; known: {', '.join(MITIGATIONS)}"
        )


def parse_mitigations(spec: str | Sequence[str]) -> list[str]:
    """A mitigation list from ``"none,ssbd"`` or a sequence of names.

    Blank comma-separated parts are skipped and every other part must
    pass :func:`check_mitigation`.
    """
    names = spec.split(",") if isinstance(spec, str) else spec
    mitigations = [name.strip() for name in names if name.strip()]
    for mitigation in mitigations:
        check_mitigation(mitigation)
    return mitigations
