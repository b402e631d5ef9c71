"""Tests for the attacker runtime, Flush+Reload, and collision search."""

import pytest

from repro.attacks.collision import SsbpCollisionFinder
from repro.attacks.flush_reload import STRIDE, FlushReloadChannel
from repro.attacks.runtime import AttackerStld
from repro.core.exec_types import TimingClass
from repro.core.hashfn import ipa_hash
from repro.cpu.machine import Machine
from repro.errors import CollisionNotFound, ReproError
from repro.osm.address_space import Perm
from repro.revng.stld import load_instruction_index


@pytest.fixture(scope="module")
def rig():
    machine = Machine(seed=42)
    process = machine.kernel.create_process("attacker")
    attacker = AttackerStld(machine, process, slide_pages=16)
    return machine, process, attacker


class TestAttackerStld:
    def test_self_calibration_covers_all_classes(self, rig):
        _, _, attacker = rig
        assert set(attacker.classifier.calibration.means) == set(TimingClass)

    def test_place_outside_region_rejected(self, rig):
        _, _, attacker = rig
        with pytest.raises(ReproError):
            attacker.place_at(attacker.slide_base - 1)

    def test_observe_fresh_is_bypass(self, rig):
        _, _, attacker = rig
        program = attacker.place_at(attacker.slide_base + 512)
        assert attacker.observe(program, aliasing=False) is TimingClass.BYPASS

    def test_charge_then_drain_roundtrip(self, rig):
        _, _, attacker = rig
        program = attacker.place_at(attacker.slide_base + 1024)
        attacker.charge_c3(program)
        drained = attacker.drain_c3(program)
        assert drained >= 14  # C3 was charged to 15
        assert attacker.observe(program, aliasing=False) is TimingClass.BYPASS

    def test_train_psf_reaches_forwarding(self, rig):
        _, _, attacker = rig
        program = attacker.place_at(attacker.slide_base + 2048)
        assert attacker.train_psf(program)
        # Confirmed state: another aliasing run still forwards.
        assert attacker.observe(program, aliasing=True) is TimingClass.PSF_FORWARD


class TestFlushReload:
    @pytest.fixture(scope="class")
    def channel(self, rig):
        machine, process, _ = rig
        base = machine.kernel.map_anonymous(process, pages=256)
        return FlushReloadChannel(machine, process, base)

    def test_threshold_between_hit_and_miss(self, channel):
        lat = channel.machine.core.model.latency
        assert lat.l1_hit < channel.threshold < lat.memory

    def test_receive_nothing_after_flush(self, channel):
        channel.flush_all()
        assert channel.receive() is None

    def test_receive_single_touched_slot(self, channel):
        channel.flush_all()
        # Victim stand-in: touch slot 42.
        paddr = channel.machine.kernel.translate(
            channel.process, channel.base_va + 42 * STRIDE
        )
        channel.machine.core.hierarchy.load(paddr)
        assert channel.receive() == 42

    def test_receive_rejects_multiple_hits(self, channel):
        channel.flush_all()
        for slot in (7, 9):
            paddr = channel.machine.kernel.translate(
                channel.process, channel.base_va + slot * STRIDE
            )
            channel.machine.core.hierarchy.load(paddr)
        assert channel.receive() is None


class TestCollisionFinder:
    def test_finds_ground_truth_collision(self, rig):
        machine, process, attacker = rig
        target_region = machine.kernel.map_anonymous(
            process, pages=2, perms=Perm.RX, kind="code"
        )
        target = attacker.template.relocate(target_region + 96)
        finder = SsbpCollisionFinder(attacker, lambda: attacker.charge_c3(target))
        result = finder.find()
        load_index = load_instruction_index(attacker.template)
        target_ipa = process.address_space.translate_nofault(target.iva(load_index))
        found_ipa = process.address_space.translate_nofault(
            result.program.iva(load_index)
        )
        assert ipa_hash(target_ipa) == ipa_hash(found_ipa)
        assert 1 <= result.attempts <= 4096  # Vulnerability 2's bound

    def test_raises_when_nothing_charged(self, rig):
        _, _, attacker = rig
        finder = SsbpCollisionFinder(attacker, recharge=lambda: None)
        with pytest.raises(CollisionNotFound):
            finder.find(max_attempts=300)

    def test_failure_names_the_offsets_scanned(self, rig):
        _, _, attacker = rig
        finder = SsbpCollisionFinder(attacker, recharge=lambda: None)
        with pytest.raises(CollisionNotFound) as raised:
            finder.find(start_offset=3 * 4096, max_attempts=8)
        assert str(raised.value) == (
            "no SSBP collision in 8 attempts (offsets 0x3000-0x3007 scanned)"
        )
