"""Unit tests for address spaces and translation faults."""

import pytest

from repro.errors import ProtectionFault, SegmentationFault
from repro.osm.address_space import AddressSpace, CowFault, PAGE_SIZE, Perm


class TestPerm:
    def test_rw_contains_r_and_w(self):
        assert Perm.R & Perm.RW
        assert Perm.W & Perm.RW
        assert not (Perm.X & Perm.RW)

    def test_none_is_falsy(self):
        assert not Perm.NONE


class TestTranslate:
    def test_basic_translation(self):
        space = AddressSpace()
        space.map_page(0x400, frame=0x99, perms=Perm.RX)
        vaddr = (0x400 << 12) | 0x123
        assert space.translate(vaddr, Perm.R) == (0x99 << 12) | 0x123

    def test_unmapped_faults(self):
        with pytest.raises(SegmentationFault) as info:
            AddressSpace().translate(0x1234)
        assert info.value.address == 0x1234

    def test_write_to_readonly_faults(self):
        space = AddressSpace()
        space.map_page(1, frame=2, perms=Perm.R)
        with pytest.raises(ProtectionFault):
            space.translate(PAGE_SIZE, Perm.W)

    def test_execute_needs_x(self):
        space = AddressSpace()
        space.map_page(1, frame=2, perms=Perm.RW)
        with pytest.raises(ProtectionFault):
            space.translate(PAGE_SIZE, Perm.X)

    def test_cow_write_raises_cowfault(self):
        space = AddressSpace()
        space.map_page(1, frame=2, perms=Perm.RW, cow=True)
        with pytest.raises(CowFault) as info:
            space.translate(PAGE_SIZE, Perm.W)
        assert info.value.va_page == 1

    def test_cow_read_is_fine(self):
        space = AddressSpace()
        space.map_page(1, frame=2, perms=Perm.RW, cow=True)
        assert space.translate(PAGE_SIZE, Perm.R) == 2 * PAGE_SIZE

    def test_nofault_translation(self):
        space = AddressSpace()
        space.map_page(1, frame=2, perms=Perm.NONE)
        assert space.translate_nofault(PAGE_SIZE + 5) == 2 * PAGE_SIZE + 5
        assert space.translate_nofault(0) is None

    def test_fault_describes_access(self):
        space = AddressSpace()
        space.map_page(1, frame=2, perms=Perm.R)
        with pytest.raises(ProtectionFault, match="write"):
            space.translate(PAGE_SIZE, Perm.W)
