"""Tests for the Section VI mitigations."""

import pytest

from repro.core.exec_types import TimingClass
from repro.cpu.machine import Machine
from repro.mitigations.secure_timer import SecureTimer
from repro.mitigations.ssbd import measure_workload
from repro.workloads.spec2017 import SPEC2017


class TestSsbdContext:
    def test_sets_and_restores(self):
        machine = Machine(seed=1)
        assert not machine.core.spec_ctrl.ssbd
        machine.core.set_ssbd(True)
        assert machine.core.spec_ctrl.ssbd
        machine.core.set_ssbd(False)
        assert not machine.core.spec_ctrl.ssbd


class TestSsbdOverhead:
    def test_headliners_exceed_twenty_percent(self):
        """Fig 12: perlbench and exchange2 pay > 20%."""
        for name in ("perlbench", "exchange2"):
            timing = measure_workload(SPEC2017[name], operations=300, repetitions=2)
            assert timing.overhead > 0.20, name

    def test_memory_bound_benchmarks_barely_notice(self):
        for name in ("mcf", "xz"):
            timing = measure_workload(SPEC2017[name], operations=300, repetitions=2)
            assert timing.overhead < 0.10, name

    def test_overhead_is_never_negative_within_noise(self):
        timing = measure_workload(SPEC2017["leela"], operations=200, repetitions=2)
        assert timing.overhead > -0.05


class TestSsbdStopsProbing:
    def test_no_timing_differences_under_ssbd(self):
        """Section VI-A: with SSBD every stld is a Block-state stall —
        the attacker's calibration collapses (bypass and stall read the
        same), so predictor state is unobservable."""
        from repro.attacks.runtime import AttackerStld

        machine = Machine(seed=3)
        machine.core.set_ssbd(True)
        process = machine.kernel.create_process("attacker")
        attacker = AttackerStld(machine, process, slide_pages=2)
        means = attacker.classifier.calibration.means
        gap = abs(
            means[TimingClass.BYPASS] - means[TimingClass.STALL_CACHE]
        )
        baseline_gap = 40  # the unmitigated bypass-vs-stall separation
        assert gap < baseline_gap / 4
        # The rollback classes vanished too: nothing speculates.
        assert (
            abs(means[TimingClass.ROLLBACK_BYPASS] - means[TimingClass.BYPASS])
            < baseline_gap
        )


class TestSecureTimer:
    def test_quantizes(self):
        timer = SecureTimer(resolution=100, jitter=0)
        assert timer(257) == 200

    def test_jitter_bounded(self):
        timer = SecureTimer(resolution=1, jitter=5, seed=1)
        readings = [timer(1000) for _ in range(100)]
        assert all(995 <= r <= 1005 for r in readings)

    def test_invalid_resolution(self):
        with pytest.raises(ValueError):
            SecureTimer(resolution=0)

    def test_one_cycle_resolution_without_jitter_is_identity(self):
        timer = SecureTimer(resolution=1, jitter=0)
        assert [timer(c) for c in (0, 1, 45, 1000)] == [0, 1, 45, 1000]

    def test_zero_cycles_quantize_to_zero(self):
        # max(0, ...) clamps a negative jittered reading: a secure timer
        # never reports time running backwards.
        timer = SecureTimer(resolution=100, jitter=64, seed=2)
        assert all(timer(0) == 0 for _ in range(50))

    def test_readings_stay_on_the_resolution_grid(self):
        timer = SecureTimer(resolution=128, jitter=32, seed=3)
        assert all(timer(c) % 128 == 0 for c in range(0, 2000, 7))

    def test_defeats_attacker_calibration(self):
        """With the timer coarser than every timing gap, the attacker's
        own calibration cannot tell the classes apart."""
        from repro.attacks.runtime import AttackerStld

        machine = Machine(seed=4)
        process = machine.kernel.create_process("attacker")
        attacker = AttackerStld(
            machine, process, slide_pages=2,
            timer=SecureTimer(resolution=512, jitter=128),
        )
        # Calibration "succeeded" numerically, but the centroids carry no
        # usable margin: bypass and stall collapse.
        means = attacker.classifier.calibration.means
        assert (
            abs(
                means[TimingClass.BYPASS] - means[TimingClass.STALL_CACHE]
            )
            < 512
        )


class TestFlushSsbpOnSwitch:
    def test_ssbp_cleared_between_processes(self):
        machine = Machine(seed=5, flush_ssbp_on_switch=True)
        victim = machine.kernel.create_process("victim")
        attacker = machine.kernel.create_process("attacker")
        machine.kernel.schedule(victim)
        unit = machine.core.thread(0).unit
        unit.ssbp.update(7, 15, 3)
        machine.kernel.schedule(attacker)
        assert unit.ssbp.occupancy == 0


class TestRandomizedSelection:
    def test_salt_changes_on_switch(self):
        machine = Machine(seed=6, resalt_on_switch=True)
        a = machine.kernel.create_process("a")
        b = machine.kernel.create_process("b")
        unit = machine.core.thread(0).unit
        machine.kernel.schedule(a)
        salt_one = unit.hash_salt
        machine.kernel.schedule(b)
        assert unit.hash_salt != salt_one

    def test_salt_changes_on_syscall(self):
        machine = Machine(seed=6, resalt_on_switch=True)
        a = machine.kernel.create_process("a")
        machine.kernel.schedule(a)
        unit = machine.core.thread(0).unit
        before = unit.hash_salt
        machine.kernel.syscall(a)
        assert unit.hash_salt != before

    def test_stable_without_mitigation(self):
        machine = Machine(seed=6)
        a = machine.kernel.create_process("a")
        machine.kernel.schedule(a)
        assert machine.core.thread(0).unit.hash_salt == 0
