"""E11/E12/E13 — Section V: leak-campaign evaluations.

The paper leaks 10,000 random bytes per attack; the simulated campaigns
default to smaller counts (every byte costs hundreds of simulated
program runs) and report accuracy plus bandwidth computed from simulated
cycles at the platform clock.  Absolute B/s differ from silicon (the
simulator's victims run leaner than real processes); the paper's
*ordering* — STL > CTL > web in bandwidth, web clearly least accurate —
is the reproduced claim.
"""

from __future__ import annotations

import random

from repro.attacks.spectre_ctl import SpectreCTL
from repro.attacks.spectre_stl import SpectreSTL
from repro.attacks.web import SpectreCTLWeb
from repro.experiments.base import ExperimentResult
from repro.osm.domains import SecurityDomain

__all__ = ["run_stl", "run_ctl", "run_web", "run_all"]


def _random_secret(length: int, seed: int) -> bytes:
    rng = random.Random(seed)
    return bytes(rng.randrange(256) for _ in range(length))


def run_stl(secret_bytes: int = 64, seed: int = 5150) -> ExperimentResult:
    attack = SpectreSTL()
    attack.find_collision()
    report = attack.leak(_random_secret(secret_bytes, seed))
    result = ExperimentResult(
        experiment_id="spectre-stl",
        title="Out-of-place Spectre-STL (Section V-B)",
        headers=["metric", "measured", "paper"],
        paper_claim="accuracy 99.95%, 416 B/s, collision in 16 pages (>90%)",
    )
    result.add_row("bytes leaked", len(report.recovered), "10,000")
    result.add_row("accuracy", f"{report.accuracy:.2%}", "99.95%")
    result.add_row("bandwidth (B/s)", f"{report.bytes_per_second:,.0f}", "416")
    result.add_row(
        "collision candidates tried", report.validation_attempts, "<= 16 pages"
    )
    result.metrics["accuracy"] = report.accuracy
    result.metrics["bytes_per_second"] = round(report.bytes_per_second)
    result.metrics["errors"] = len(report.per_byte_errors)
    result.add_note(
        "bandwidth is simulated-cycle-derived; the victim loop is leaner "
        "than a real process, so absolute B/s exceed silicon"
    )
    return result


def run_ctl(secret_bytes: int = 24, seed: int = 5151) -> ExperimentResult:
    attack = SpectreCTL()
    attack.find_collisions()
    report = attack.leak(_random_secret(secret_bytes, seed))
    result = ExperimentResult(
        experiment_id="spectre-ctl",
        title="Spectre-CTL, cross-process (Section V-C.1)",
        headers=["metric", "measured", "paper"],
        paper_claim="accuracy 99.97%, 384 B/s, works across processes",
    )
    result.add_row("victim domain", SecurityDomain.USER.value, "user / kernel")
    result.add_row("bytes leaked", len(report.recovered), "10,000")
    result.add_row("accuracy", f"{report.accuracy:.2%}", "99.97%")
    result.add_row("bandwidth (B/s)", f"{report.bytes_per_second:,.0f}", "384")
    result.add_row("bytes missed", len(report.missed_bytes), "~0")
    result.metrics["accuracy"] = report.accuracy
    result.metrics["bytes_per_second"] = round(report.bytes_per_second)
    return result


def run_web(secret_bytes: int = 16, seed: int = 5152) -> ExperimentResult:
    attack = SpectreCTLWeb()
    attack.find_collisions()
    report = attack.leak(_random_secret(secret_bytes, seed))
    result = ExperimentResult(
        experiment_id="spectre-ctl-web",
        title="Spectre-CTL in a web browser model (Section V-C.2)",
        headers=["metric", "measured", "paper"],
        paper_claim="~170 B/s at 81.1% accuracy with a ~10 ns timer",
    )
    result.add_row("timer resolution", f"{attack._timer.tick_cycles} cycles", "~10 ns")
    result.add_row("bytes leaked", len(report.recovered), "10,000")
    result.add_row("accuracy", f"{report.accuracy:.2%}", "81.1%")
    result.add_row("bandwidth (B/s)", f"{report.bytes_per_second:,.0f}", "170")
    result.metrics["accuracy"] = report.accuracy
    result.metrics["bytes_per_second"] = round(report.bytes_per_second)
    return result


def run_all(seed: int = 5150) -> ExperimentResult:
    """The cross-attack comparison (the ordering claim)."""
    stl = run_stl(secret_bytes=32, seed=seed)
    ctl = run_ctl(secret_bytes=12, seed=seed + 1)
    web = run_web(secret_bytes=10, seed=seed + 2)
    result = ExperimentResult(
        experiment_id="attack-comparison",
        title="Attack comparison: bandwidth and accuracy ordering",
        headers=["attack", "accuracy", "B/s"],
        paper_claim="STL (416) > CTL (384) > web (170); web least accurate",
    )
    for sub, name in ((stl, "Spectre-STL"), (ctl, "Spectre-CTL"), (web, "Spectre-CTL web")):
        result.add_row(
            name, f"{sub.metrics['accuracy']:.2%}", sub.metrics["bytes_per_second"]
        )
    ordering = (
        stl.metrics["bytes_per_second"]
        > ctl.metrics["bytes_per_second"]
        > web.metrics["bytes_per_second"]
    )
    result.metrics["bandwidth_ordering_holds"] = str(bool(ordering))
    result.metrics["web_least_accurate"] = str(
        web.metrics["accuracy"] <= min(stl.metrics["accuracy"], ctl.metrics["accuracy"])
    )
    return result
