"""Extra coverage for the attacker runtime's training primitives."""

import pytest

from repro.attacks.runtime import AttackerStld
from repro.core.exec_types import TimingClass
from repro.cpu.machine import Machine
from repro.mitigations.secure_timer import SecureTimer
from repro.revng.stld import build_stld


@pytest.fixture(scope="module")
def rig():
    machine = Machine(seed=314)
    process = machine.kernel.create_process("attacker")
    return machine, AttackerStld(machine, process, slide_pages=4)


class TestPumpC4:
    def test_pump_then_single_g_charges(self, rig):
        machine, attacker = rig
        program = attacker.place_at(attacker.slide_base + 700)
        # Pump C4: deliver G events between drains until it saturates.
        for _ in range(4):
            attacker.drain_c3(program)
            attacker.run(program, aliasing=True)  # G
        attacker.drain_c3(program)
        # After the pump, the entry reads drained...
        assert attacker.observe(program, aliasing=False) is TimingClass.BYPASS
        # ...and ONE further G event charges C3 fully (C4 saturated).
        attacker.run(program, aliasing=True)
        drained = attacker.drain_c3(program)
        assert drained >= 14


class TestDrainConfirmations:
    def test_confirmed_drain_counts_like_plain_drain(self, rig):
        machine, attacker = rig
        program = attacker.place_at(attacker.slide_base + 1900)
        attacker.charge_c3(program)
        attacker.drain_confirmations = 2
        try:
            drained = attacker.drain_c3(program)
        finally:
            attacker.drain_confirmations = 1
        assert drained >= 14
        assert attacker.observe(program, aliasing=False) is TimingClass.BYPASS


class TestCustomTemplate:
    def test_short_template_still_separates_classes(self):
        machine = Machine(seed=315)
        process = machine.kernel.create_process("short")
        attacker = AttackerStld(
            machine,
            process,
            slide_pages=2,
            template=build_stld(agen_imuls=6, consumer_imuls=4),
        )
        assert attacker.classifier.margin() >= 2.0
        program = attacker.place_at(attacker.slide_base + 600)
        assert attacker.observe(program, aliasing=False) is TimingClass.BYPASS


class TestSecureTimerOnRuntime:
    def test_probing_breaks_under_coarse_timer(self):
        """With a 512-cycle timer, charge/drain become unobservable: a
        charged entry reads the same class as a fresh one."""
        machine = Machine(seed=316)
        process = machine.kernel.create_process("blinded")
        attacker = AttackerStld(
            machine, process, slide_pages=2,
            timer=SecureTimer(resolution=512, jitter=0),
        )
        program = attacker.place_at(attacker.slide_base + 640)
        fresh = attacker.run(program, aliasing=False)
        attacker.charge_c3(program)
        charged = attacker.run(program, aliasing=False)
        assert fresh == charged  # both quantized to the same reading
