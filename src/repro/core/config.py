"""CPU model configurations for the four platforms of TABLE III.

Every simulated component draws its parameters from a :class:`CpuModel`,
so experiments can be repeated per platform exactly as the paper does.
All four machines are Zen 3 (the 7735HS is "Zen 3+") and, per the paper's
Section III-D.3, share the same PSFP/SSBP design; they differ in clock,
store-queue size and cache latencies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.psfp import PSFP_ENTRIES
from repro.core.ssbp import SSBP_SETS, SSBP_WAYS
from repro.errors import ConfigError

__all__ = ["LatencyModel", "CpuModel", "ZEN3_MODELS", "default_model", "get_model"]


@dataclass(frozen=True)
class LatencyModel:
    """Cycle costs used by the core's timing model.

    The absolute values are representative of Zen 3 rather than measured;
    what the experiments rely on is the *separability* of the execution
    types these latencies induce (Fig 2 levels, DESIGN.md section 5).
    """

    alu: int = 1
    imul: int = 3
    l1_hit: int = 4
    l2_hit: int = 14
    l3_hit: int = 47
    memory: int = 200
    #: Extra latency of a load served from the store queue after the stall.
    sq_forward: int = 7
    #: Replay scheduling cost when a stalled load finally reads the cache
    #: (types E/F) instead of forwarding from the SQ (types A/B).
    post_stall_replay: int = 6
    #: Pipeline flush + refetch + redispatch after a misprediction
    #: (types D and G take "more than 240 cycles" in Fig 2).
    rollback: int = 62
    #: Extra squash cost for a wrong *predictive forward* (type D): the
    #: mismatch is detected at store-data compare, a stage later than the
    #: address-match check that catches a wrong bypass (type G).
    psf_rollback_extra: int = 12

    def __post_init__(self) -> None:
        for name in ("alu", "imul", "l1_hit", "l2_hit", "l3_hit", "memory"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"latency {name} must be positive")
        if not self.l1_hit < self.l2_hit < self.l3_hit < self.memory:
            raise ConfigError("cache latencies must increase down the hierarchy")


@dataclass(frozen=True)
class CpuModel:
    """One simulated platform (a row of TABLE III plus derived parameters)."""

    name: str
    microarch: str = "Zen 3"
    microcode: int = 0
    kernel: str = "Linux 5.15.0-76-generic"
    clock_ghz: float = 3.7
    smt_threads: int = 2
    store_queue_entries: int = 64
    psfp_entries: int = PSFP_ENTRIES
    ssbp_sets: int = SSBP_SETS
    ssbp_ways: int = SSBP_WAYS
    #: RDPRU noise rate; the paper reports "consistently below 1%".
    timer_noise: float = 0.005
    #: Predictive Store Forwarding exists only from Zen 3 on; a Zen 2
    #: style model (SSB only, no PSFP) is a useful ablation baseline.
    psf_supported: bool = True
    latency: LatencyModel = field(default_factory=LatencyModel)

    def __post_init__(self) -> None:
        if self.clock_ghz <= 0:
            raise ConfigError("clock must be positive")
        if self.smt_threads not in (1, 2):
            raise ConfigError("Zen 3 cores run 1 or 2 SMT threads")
        if not 0 <= self.timer_noise < 0.05:
            raise ConfigError("timer noise is a small fraction (paper: <1%)")
        if self.store_queue_entries < 1:
            raise ConfigError("store queue needs at least one entry")


#: The four evaluation platforms of TABLE III.
ZEN3_MODELS: dict[str, CpuModel] = {
    model.name: model
    for model in (
        CpuModel(
            name="ryzen9-5900x",
            microcode=0xA201205,
            kernel="Linux 5.15.0-76-generic",
            clock_ghz=3.7,
        ),
        CpuModel(
            name="epyc-7543",
            microcode=0xA001173,
            kernel="Linux 6.1.0-rc4-snp-host-93fa8c5918a4",
            clock_ghz=2.8,
        ),
        CpuModel(
            name="ryzen5-5600g",
            microcode=0xA50000D,
            kernel="Linux 5.15.0-76-generic",
            clock_ghz=3.9,
        ),
        CpuModel(
            name="ryzen7-7735hs",
            microarch="Zen 3+",
            microcode=0xA404102,
            kernel="Linux 5.4.0-153-generic",
            clock_ghz=3.2,
        ),
    )
}


def default_model() -> CpuModel:
    """The platform used for single-machine experiments (Ryzen 9 5900X)."""
    return ZEN3_MODELS["ryzen9-5900x"]


def zen2_model() -> CpuModel:
    """A Zen 2 style baseline: speculative store bypass (SSBP) but no
    predictive store forwarding — PSF shipped with Zen 3.  Used by the
    ablation experiments to show which findings are PSF-specific."""
    return CpuModel(
        name="ryzen7-3700x",
        microarch="Zen 2",
        microcode=0x8701021,
        clock_ghz=3.6,
        store_queue_entries=48,
        psf_supported=False,
    )


def get_model(name: str) -> CpuModel:
    """Look up a platform by name, with a helpful error on typos."""
    try:
        return ZEN3_MODELS[name]
    except KeyError:
        known = ", ".join(sorted(ZEN3_MODELS))
        raise ConfigError(f"unknown CPU model {name!r}; known models: {known}") from None
