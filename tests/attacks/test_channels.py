"""Symbol transports and the capacity harness."""

import pytest

from repro.attacks.capacity import (
    CapacityConfig,
    build_channel,
    measure_capacity,
)
from repro.attacks.channels import (
    CacheLineChannel,
    NoisyChannel,
    StlPredictorChannel,
)
from repro.cpu.machine import Machine


class TestCacheLineChannel:
    def test_round_trip(self):
        channel = CacheLineChannel(Machine(seed=5), width=4)
        symbols = list(range(16)) + [5, 0, 15]
        assert channel.transfer(symbols) == symbols
        assert channel.erasures == 0

    def test_arity_matches_width(self):
        assert CacheLineChannel(Machine(seed=5), width=3).arity == 8

    def test_sender_cannot_write_the_shared_mapping(self):
        from repro.errors import ProtectionFault

        channel = CacheLineChannel(Machine(seed=5), width=2)
        with pytest.raises(ProtectionFault):
            channel.machine.kernel.write(
                channel.sender_process, channel.sender_base, b"\x01"
            )

    def test_width_validated(self):
        with pytest.raises(ValueError):
            CacheLineChannel(Machine(seed=5), width=0)


class TestStlPredictorChannel:
    @pytest.fixture(scope="class")
    def channel(self):
        channel = StlPredictorChannel(Machine(seed=1234), width=1)
        channel.handshake()
        return channel

    def test_handshake_finds_each_lane(self, channel):
        assert len(channel.rx_programs) == channel.width
        assert all(attempts > 0 for attempts in channel.handshake_attempts)

    def test_handshake_within_vulnerability_2_bound(self, channel):
        assert all(1 <= attempts <= 4096 for attempts in channel.handshake_attempts)

    def test_round_trip_without_shared_memory(self, channel):
        symbols = [1, 0, 1, 1, 0, 0, 1, 0]
        assert channel.transfer(symbols) == symbols

    def test_all_zeros_and_all_ones(self, channel):
        assert channel.transfer([0] * 8) == [0] * 8
        assert channel.transfer([1] * 8) == [1] * 8

    def test_processes_share_no_mappings(self, channel):
        sender_frames = {
            mapping.frame
            for mapping in channel.sender_process.address_space.pages().values()
        }
        receiver_frames = {
            mapping.frame
            for mapping in channel.receiver_process.address_space.pages().values()
        }
        assert not sender_frames & receiver_frames

    def test_width_validated(self):
        with pytest.raises(ValueError):
            StlPredictorChannel(Machine(seed=1), width=9)


class TestNoisyChannel:
    def _clean(self):
        return CacheLineChannel(Machine(seed=5), width=2)

    def test_zero_noise_is_transparent(self):
        noisy = NoisyChannel(self._clean(), 0.0, seed=3)
        assert noisy.transfer([1, 2, 3, 0]) == [1, 2, 3, 0]
        assert noisy.flips == 0

    def test_full_noise_flips_every_symbol(self):
        noisy = NoisyChannel(self._clean(), 1.0, seed=3)
        noisy.transfer([0] * 40)
        assert noisy.flips == 40

    def test_same_seed_same_corruption(self):
        a = NoisyChannel(self._clean(), 0.3, seed=9).transfer([0] * 64)
        b = NoisyChannel(self._clean(), 0.3, seed=9).transfer([0] * 64)
        assert a == b

    def test_probability_validated(self):
        with pytest.raises(ValueError):
            NoisyChannel(self._clean(), 1.5)


class TestCapacityHarness:
    def test_clean_cache_channel_is_error_free(self):
        report = measure_capacity(
            CapacityConfig(channel="cache", width=4, payload_bytes=16)
        )
        assert report.raw_symbol_errors == 0
        assert report.corrected_byte_errors == 0
        assert not report.framing_failed
        assert report.cycles > 0
        assert report.goodput_bits_per_second > 0

    def test_repetition_code_buys_back_noise(self):
        uncoded = measure_capacity(
            CapacityConfig(channel="cache", width=2, noise=0.08, seed=713)
        )
        coded = measure_capacity(
            CapacityConfig(channel="cache", width=2, repeat=3, noise=0.08, seed=713)
        )
        assert uncoded.corrected_byte_errors > 0
        assert coded.corrected_byte_errors == 0
        # The price of the redundancy is wire time, visible in goodput.
        assert coded.symbols_on_wire > uncoded.symbols_on_wire

    def test_deterministic_for_a_seed(self):
        config = CapacityConfig(channel="cache", width=2, payload_bytes=8, seed=42)
        assert measure_capacity(config).to_dict() == measure_capacity(config).to_dict()

    def test_gross_exceeds_goodput(self):
        report = measure_capacity(
            CapacityConfig(channel="cache", width=2, repeat=3, payload_bytes=8)
        )
        assert report.gross_bits_per_second > report.goodput_bits_per_second

    def test_unknown_channel_kind_rejected(self):
        with pytest.raises(ValueError):
            build_channel(CapacityConfig(channel="smoke-signals"))

    def test_to_dict_is_json_shaped(self):
        import json

        report = measure_capacity(CapacityConfig(channel="cache", payload_bytes=4))
        assert json.loads(json.dumps(report.to_dict()))["channel"] == "cache"
