"""Baseline predictors from other vendors (TABLE IV comparison).

AMD's SSBP (the paper's subject, :mod:`repro.core`) is compared against
the Intel and ARM memory disambiguation units; :func:`amd_characterization`
renders our work's row of TABLE IV.
"""

from repro.baselines.intel_mdu import MduCharacterization


def amd_characterization() -> MduCharacterization:
    """The AMD row of TABLE IV: 6-bit C3 + 2-bit C4, whole-IPA hash."""
    return MduCharacterization(
        vendor="AMD (our work)",
        state_bits="6 bit (C3) + 2 bit (C4)",
        selection="hashed value of the whole load IPA",
        entries=4096,
    )
