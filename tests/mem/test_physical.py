"""Unit tests for the sparse physical memory."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.mem.physical import PAGE_SIZE, PhysicalMemory


class TestBasics:
    def test_reads_zero_by_default(self):
        assert PhysicalMemory().read(0x1234, 4) == b"\x00" * 4

    def test_write_then_read(self):
        mem = PhysicalMemory()
        mem.write(0x1000, b"hello")
        assert mem.read(0x1000, 5) == b"hello"

    def test_cross_frame_write(self):
        mem = PhysicalMemory()
        addr = PAGE_SIZE - 2
        mem.write(addr, b"abcd")
        assert mem.read(addr, 4) == b"abcd"
        assert mem.resident_frames == 2

    def test_sparse_allocation(self):
        mem = PhysicalMemory()
        mem.write(0, b"\x01")
        mem.write(10 * PAGE_SIZE, b"\x02")
        assert mem.resident_frames == 2

    def test_out_of_range_rejected(self):
        mem = PhysicalMemory(size=PAGE_SIZE)
        with pytest.raises(ValueError):
            mem.read(PAGE_SIZE, 1)

    def test_negative_address_rejected(self):
        with pytest.raises(ValueError):
            PhysicalMemory().read(-1, 1)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            PhysicalMemory().read(0, -1)

    def test_bad_size_rejected(self):
        with pytest.raises(ConfigError):
            PhysicalMemory(size=0)


class TestWords:
    """Word access as the executors do it: little-endian bytes, a
    ``width``-byte store writing only the low ``width`` bytes."""

    def test_u8_roundtrip(self):
        mem = PhysicalMemory()
        mem.write(5, b"\xab")
        assert mem.read(5, 1) == b"\xab"

    def test_u8_masks(self):
        mem = PhysicalMemory()
        mem.write(5, (0x1FF).to_bytes(8, "little")[:1])
        assert mem.read(5, 2) == b"\xff\x00"

    def test_u64_roundtrip_little_endian(self):
        mem = PhysicalMemory()
        mem.write(0x100, (0x1122334455667788).to_bytes(8, "little"))
        assert mem.read(0x100, 8) == bytes.fromhex("8877665544332211")
        assert int.from_bytes(mem.read(0x100, 8), "little") == 0x1122334455667788

    @given(st.integers(0, 2**64 - 1), st.integers(0, 10_000))
    def test_u64_roundtrip_property(self, value, paddr):
        mem = PhysicalMemory()
        mem.write(paddr, value.to_bytes(8, "little"))
        assert int.from_bytes(mem.read(paddr, 8), "little") == value


class TestCopyFrame:
    def test_copies_content(self):
        mem = PhysicalMemory()
        mem.write(3 * PAGE_SIZE + 7, b"data")
        mem.copy_frame(3, 9)
        assert mem.read(9 * PAGE_SIZE + 7, 4) == b"data"

    def test_copy_of_untouched_frame_zeroes_target(self):
        mem = PhysicalMemory()
        mem.write(9 * PAGE_SIZE, b"\xff")
        mem.copy_frame(3, 9)
        assert mem.read(9 * PAGE_SIZE, 1) == b"\x00"

    def test_copy_is_a_snapshot(self):
        mem = PhysicalMemory()
        mem.write(3 * PAGE_SIZE, b"\x01")
        mem.copy_frame(3, 9)
        mem.write(3 * PAGE_SIZE, b"\x02")
        assert mem.read(9 * PAGE_SIZE, 1) == b"\x01"
