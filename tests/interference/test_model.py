"""The interference model: determinism, quiet no-op, machine hooks."""

import pytest

from repro.cpu.isa import Halt, Load, MovImm, Program
from repro.cpu.machine import Machine
from repro.errors import ReproError
from repro.interference.model import InterferenceModel
from repro.interference.profile import get_profile


def _victim(machine):
    process = machine.kernel.create_process("victim")
    buf = machine.kernel.map_anonymous(process, pages=1)
    program = machine.load_program(
        process, Program([MovImm("p", buf), Load("x", base="p"), Halt()],
                         name="victim")
    )
    return process, program


def _campaign(seed, profile_name, runs=40):
    """Run a small seeded campaign; return (cycle counter, model tallies)."""
    machine = Machine(seed=seed)
    model = InterferenceModel(get_profile(profile_name, seed=seed))
    model.attach(machine)
    process, program = _victim(machine)
    timer_readings = []
    for _ in range(runs):
        result = machine.run(process, program)
        timer_readings.append(model.timer(result.cycles))
    return (
        machine.core.thread(0).cycles,
        (model.preemptions, model.corunner_runs, model.pmc_perturbations),
        timer_readings,
    )


class TestAttachment:
    def test_attach_returns_self_and_installs(self):
        machine = Machine(seed=1)
        model = InterferenceModel(get_profile("desktop"))
        assert model.attach(machine) is model
        assert machine.interference is model

    def test_double_attach_rejected(self):
        machine = Machine(seed=1)
        model = InterferenceModel(get_profile("desktop")).attach(machine)
        with pytest.raises(ReproError, match="already"):
            InterferenceModel(get_profile("quiet")).attach(machine)
        with pytest.raises(ReproError, match="already"):
            model.attach(Machine(seed=2))


class TestQuietNoOp:
    def test_no_processes_no_rng_no_cycles(self):
        bare = Machine(seed=3)
        attached = Machine(seed=3)
        model = InterferenceModel(get_profile("quiet")).attach(attached)
        state_before = model.rng.getstate()
        for machine in (bare, attached):
            process, program = _victim(machine)
            for _ in range(10):
                machine.run(process, program)
        assert bare.core.thread(0).cycles == attached.core.thread(0).cycles
        assert model.rng.getstate() == state_before
        assert (model.preemptions, model.corunner_runs,
                model.pmc_perturbations) == (0, 0, 0)

    def test_quiet_timer_is_identity(self):
        model = InterferenceModel(get_profile("quiet"))
        assert [model.timer(c) for c in (0, 1, 12345)] == [0, 1, 12345]


class TestDeterminism:
    @pytest.mark.parametrize("preset", ["desktop", "adversarial"])
    def test_same_seed_same_schedule(self, preset):
        assert _campaign(11, preset) == _campaign(11, preset)

    def test_different_seed_different_schedule(self):
        # Not a tautology: 40 adversarial runs draw enough events that
        # two seeds colliding on every draw would indicate a wiring bug.
        assert _campaign(11, "adversarial") != _campaign(12, "adversarial")


class TestDisturbances:
    def test_adversarial_campaign_actually_disturbs(self):
        _, (preemptions, corunner_runs, _), _ = _campaign(7, "adversarial")
        assert preemptions > 0
        assert corunner_runs > 0

    def test_interference_inflates_the_campaign_cycles(self):
        quiet_cycles, _, _ = _campaign(7, "quiet")
        loud_cycles, _, _ = _campaign(7, "adversarial")
        assert loud_cycles > quiet_cycles


class TestTimer:
    def test_zero_cycles_stay_zero(self):
        model = InterferenceModel(get_profile("adversarial"))
        assert model.timer(0) == 0

    def test_readings_bounded_by_drift_plus_jitter(self):
        profile = get_profile("adversarial")
        model = InterferenceModel(profile)
        low = 1000 * (1.0 - profile.timer_jitter) - 1
        high = 1000 * (1.0 + profile.timer_drift + profile.timer_jitter) + 1
        readings = [model.timer(1000) for _ in range(500)]
        assert all(low <= reading <= high for reading in readings)
        assert len(set(readings)) > 1  # jitter is actually live
