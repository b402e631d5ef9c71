"""The hardened attack stack: resync framing, guarded capacity reports,
and extraction under the interference presets (docs/interference.md)."""

import pytest

from repro.attacks import coding
from repro.attacks.capacity import CapacityConfig, CapacityReport, measure_capacity
from repro.attacks.collision import SsbpCollisionFinder
from repro.attacks.extraction import SecretExtraction
from repro.attacks.flush_reload import FlushReloadChannel
from repro.attacks.spectre_stl import SpectreSTL
from repro.cpu.machine import Machine
from repro.interference.model import InterferenceModel
from repro.interference.profile import get_profile
from repro.runtime.atomic import content_key
from repro.telemetry.metrics import registry


def _decoy_stream(width=2, payload_bytes=b"\xb4\x7e"):
    """A stream whose first sync point announces an impossible frame,
    followed by a genuine parseable frame."""
    payload = coding.bytes_to_symbols(payload_bytes, width)
    decoy = coding.preamble_symbols(width) + coding.bytes_to_symbols(
        (1000).to_bytes(2, "little"), width
    )
    return decoy + coding.frame_symbols(payload, width), payload


class TestFramingResync:
    def test_default_receiver_dies_on_the_decoy(self):
        stream, _ = _decoy_stream()
        with pytest.raises(coding.FramingError, match="announces 1000"):
            coding.deframe_symbols(stream, 2)

    def test_resync_recovers_the_later_frame(self):
        stream, payload = _decoy_stream()
        assert coding.deframe_symbols(stream, 2, resync=True) == payload

    def test_resync_counts_abandoned_sync_points(self):
        stream, _ = _decoy_stream()
        before = registry().counter("attack.resync").value
        coding.deframe_symbols(stream, 2, resync=True)
        assert registry().counter("attack.resync").value > before

    def test_resync_reraises_when_no_frame_follows(self):
        dead_end = coding.preamble_symbols(2) + coding.bytes_to_symbols(
            (1000).to_bytes(2, "little"), 2
        )
        with pytest.raises(coding.FramingError, match="announces 1000"):
            coding.deframe_symbols(dead_end, 2, resync=True)


class TestCapacityGuards:
    def _report(self, **overrides):
        fields = dict(
            config=CapacityConfig(payload_bytes=8),
            symbols_on_wire=40,
            raw_symbol_errors=0,
            corrected_byte_errors=0,
            framing_failed=False,
            cycles=1000,
            clock_ghz=3.7,
        )
        fields.update(overrides)
        return CapacityReport(**fields)

    def test_empty_wire_has_no_error_rate(self):
        report = self._report(symbols_on_wire=0)
        assert report.raw_symbol_error_rate == 0.0
        assert report.confidence == 0.0

    def test_zero_payload_has_no_byte_error_rate(self):
        report = self._report(config=CapacityConfig(payload_bytes=0))
        assert report.corrected_byte_error_rate == 0.0

    def test_zero_cycles_yield_zero_throughput(self):
        report = self._report(cycles=0)
        assert report.gross_bits_per_second == 0.0
        assert report.goodput_bits_per_second == 0.0

    def test_transport_failure_is_all_lost_with_zero_confidence(self):
        report = self._report(
            failure="AttackError: lane handshakes converged",
            corrected_byte_errors=8,
        )
        assert report.all_lost
        assert report.recovered_bytes == 0
        assert report.confidence == 0.0
        data = report.to_dict()
        assert data["all_lost"] is True
        assert data["failure"].startswith("AttackError")


class TestCapacityUnderInterference:
    def test_interference_point_is_deterministic(self):
        config = CapacityConfig(
            channel="cache", width=4, repeat=3, payload_bytes=8,
            noise=0.05, seed=41, interference="desktop", resync=True,
        )
        first = measure_capacity(config).to_dict()
        second = measure_capacity(config).to_dict()
        assert first == second
        assert first["interference"] == "desktop"

    def test_unknown_preset_rejected_before_any_machine_work(self):
        with pytest.raises(ValueError, match="unknown interference preset"):
            measure_capacity(CapacityConfig(interference="hurricane"))


class TestHardenedExtraction:
    @pytest.fixture(scope="class")
    def noisy_report(self):
        secret = bytes((index * 29 + 5) & 0xFF for index in range(8))
        campaign = SecretExtraction(
            seed=2024, interference="noisy-neighbor", hardened=True
        )
        return campaign.run(secret), secret

    def test_recovers_under_noise(self, noisy_report):
        report, secret = noisy_report
        assert report.accuracy >= 0.8
        assert len(report.byte_confidence) == len(secret)

    def test_report_names_its_environment(self, noisy_report):
        report, _ = noisy_report
        assert report.interference == "noisy-neighbor"
        assert report.hardened is True
        data = report.to_dict()
        assert data["interference"] == "noisy-neighbor"
        for key in ("mean_confidence", "low_confidence_bytes",
                    "degraded", "retries", "recalibrations"):
            assert key in data

    def test_confidence_bounded_and_degradation_consistent(self, noisy_report):
        report, _ = noisy_report
        assert all(0.0 <= c <= 1.0 for c in report.byte_confidence)
        flagged = sum(
            c < report.CONFIDENCE_FLOOR for c in report.byte_confidence
        )
        assert report.low_confidence_bytes == flagged
        assert report.degraded == (report.failure is None and flagged > 0)

    def test_report_matches_pinned_digest(self, noisy_report):
        # Pins the whole hardened read: votes, retries, backoff and
        # confidences, so any drift fails here rather than in the golden.
        report, _ = noisy_report
        assert content_key(report.to_dict()) == (
            "41526708718ca8db0c91bea9acfeac0e7ec24ede3d2533c480d08bcd662615d7"
        )

    def test_quiet_campaign_reports_unattached(self):
        secret = b"\x11\x22\x33\x44"
        report = SecretExtraction(seed=2024).run(secret)
        assert report.interference is None
        assert report.accuracy == 1.0
        assert report.retries == 0
        assert report.recalibrations == 0


class TestOneSwitch:
    """``hardened`` plus the machine's noise decide every primitive's
    protocol at once: all robust, or all quiet."""

    # The last element counts the rounds one byte read spends when every
    # round fails: redundancy (1) + MAX_RETRIES (4) robust, one retry quiet.
    ROBUST = (True, 2, 7, True, 5)
    QUIET = (False, 1, 1, False, 2)

    @staticmethod
    def _primitives(preset, hardened, monkeypatch):
        probes = []
        real_probe = FlushReloadChannel._probe

        def counting_probe(channel, slot):
            probes.append(slot)
            return real_probe(channel, slot)

        monkeypatch.setattr(FlushReloadChannel, "_probe", counting_probe)
        machine = Machine(seed=2024)
        if preset is not None:
            InterferenceModel(get_profile(preset, seed=2024)).attach(machine)
        attack = SpectreSTL(machine=machine, hardened=hardened)
        attacker = attack.attacker
        # Construction calibrates Flush+Reload once: a fill, a hit and a
        # miss probe per sample pair.
        samples = len(probes) // 3
        # Majority screening confirms a stall-bypass-stall read;
        # consecutive screening rejects it at the bypass.
        reads = iter([True, False, True])
        monkeypatch.setattr(attacker, "stalls", lambda program: next(reads))
        majority = SsbpCollisionFinder(attacker, lambda: None)._is_sticky(None)
        rounds = []

        def failed_round(array1_offset, candidate):
            rounds.append(array1_offset)
            return None, 0.0

        monkeypatch.setattr(attack, "leak_byte_scored", failed_round)
        assert attack.read_byte(0x180) == (0, 0.0)
        return (
            attacker.robust, attacker.drain_confirmations, samples, majority,
            len(rounds),
        )

    def test_hardened_attack_is_robust_under_noise(self, monkeypatch):
        assert self._primitives("adversarial", True, monkeypatch) == self.ROBUST

    def test_pinned_attack_is_quiet_under_noise(self, monkeypatch):
        assert self._primitives("adversarial", False, monkeypatch) == self.QUIET

    @pytest.mark.parametrize("preset", [None, "quiet"])
    @pytest.mark.parametrize("hardened", [True, False])
    def test_quiet_machine_is_quiet_either_way(self, preset, hardened, monkeypatch):
        assert self._primitives(preset, hardened, monkeypatch) == self.QUIET
