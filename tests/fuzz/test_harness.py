"""Dual-execution harness: clean baselines, mitigations, chaos hooks.

The chaos tests are the harness's reason to exist: arm a pipeline
fault-injection hook (breaking squash repair), and the differential
check MUST catch the resulting architectural divergence — and the
shrinker MUST reduce it to a tiny reproducer.
"""

import pytest

from repro.cpu import pipeline as pipeline_mod
from repro.errors import ConfigError
from repro.fuzz.harness import (
    chaos,
    check_case,
    execute_program,
    run_dual,
)
from repro.fuzz.gen import build_program
from repro.fuzz.shrink import shrink
from repro.mitigations import MITIGATIONS

# Pinned: under "skip-register-repair" this case diverges and shrinks
# small (see test_chaos_divergence_is_caught_and_shrinks).
CHAOS_SEED, CHAOS_BLOCKS = 1, 12


@pytest.mark.parametrize("mitigation", MITIGATIONS)
def test_clean_pipeline_matches_reference(mitigation):
    for seed in (3, 11, 77):
        report = check_case("fuzz-v1", seed, 18, mitigation=mitigation)
        assert report.divergence is None, (
            f"{mitigation}: {report.divergence.describe()}"
        )


def test_fence_mitigation_transforms_program():
    instructions = build_program("fuzz-v1", 9, 20)
    execution = execute_program(instructions, seed=9, mitigation="fence")
    assert execution.status == "ok"


def test_unknown_mitigation_rejected():
    with pytest.raises(ConfigError):
        check_case("fuzz-v1", 1, 10, mitigation="prayer")


def test_chaos_rejects_unknown_hooks_and_restores_state():
    with pytest.raises(ConfigError):
        with chaos("skip-everything"):
            pass
    assert not pipeline_mod.CHAOS_HOOKS
    with chaos("skip-register-repair"):
        assert "skip-register-repair" in pipeline_mod.CHAOS_HOOKS
    assert "skip-register-repair" not in pipeline_mod.CHAOS_HOOKS


def test_chaos_divergence_is_caught_and_shrinks():
    """Injected squash-repair bug: caught by the harness, minimized to a
    handful of instructions by the shrinker (the ISSUE's self-test)."""
    with chaos("skip-register-repair"):
        report = check_case("fuzz-v1", CHAOS_SEED, CHAOS_BLOCKS)
        assert report.divergence is not None, "injected bug went unnoticed"

        def reproduces(candidate):
            return (
                run_dual(candidate, seed=CHAOS_SEED).divergence is not None
            )

        minimized = shrink(report.instructions, reproduces)
        assert reproduces(minimized)
        assert len(minimized) <= 10, [repr(i) for i in minimized]
    # Outside the chaos block the same case is clean again.
    assert check_case("fuzz-v1", CHAOS_SEED, CHAOS_BLOCKS).divergence is None


def test_chaos_store_squash_hook_is_caught():
    """The second hook (wrong-path stores surviving squash) is also
    detected — pinned seed from a scan, plus clean without chaos."""
    with chaos("skip-store-squash"):
        report = check_case("fuzz-v1", 16, 24)
        assert report.divergence is not None, "injected bug went unnoticed"
    assert check_case("fuzz-v1", 16, 24).divergence is None
