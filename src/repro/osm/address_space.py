"""Per-process virtual address spaces (page tables).

A page mapping carries the physical frame, permissions, and the flags the
isolation experiments of Section III-C/IV-A manipulate: *copy-on-write*
(fork) and *shared* (mmap).  Translation raises
:class:`repro.errors.SegmentationFault` / :class:`ProtectionFault` like a
hardware page-fault would; copy-on-write **write** faults are surfaced as
:class:`CowFault` for the kernel to resolve.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ProtectionFault, ReproError, SegmentationFault
from repro.mem.physical import PAGE_SHIFT, PAGE_SIZE

__all__ = ["Perm", "PageMapping", "CowFault", "AddressSpace", "PAGE_SHIFT", "PAGE_SIZE"]


class Perm(enum.Flag):
    """Page permissions."""

    NONE = 0
    R = enum.auto()
    W = enum.auto()
    X = enum.auto()
    RW = R | W
    RX = R | X
    RWX = R | W | X


@dataclass
class PageMapping:
    """One page-table entry."""

    frame: int
    perms: Perm
    cow: bool = False
    shared: bool = False


_W_BIT = Perm.W.value


class CowFault(ReproError):
    """A write touched a copy-on-write page; the kernel must copy it."""

    def __init__(self, va_page: int) -> None:
        super().__init__(f"copy-on-write fault at page {va_page:#x}")
        self.va_page = va_page


class AddressSpace:
    """A sparse page table: va_page -> :class:`PageMapping`."""

    def __init__(self) -> None:
        self._pages: dict[int, PageMapping] = {}

    # ------------------------------------------------------------------
    # Mapping management (kernel-only operations)
    # ------------------------------------------------------------------
    def map_page(
        self,
        va_page: int,
        frame: int,
        perms: Perm,
        cow: bool = False,
        shared: bool = False,
    ) -> None:
        self._pages[va_page] = PageMapping(frame, perms, cow=cow, shared=shared)

    def mapping(self, va_page: int) -> PageMapping | None:
        return self._pages.get(va_page)

    def pages(self) -> dict[int, PageMapping]:
        return dict(self._pages)

    # ------------------------------------------------------------------
    # Translation
    # ------------------------------------------------------------------
    def translate(self, vaddr: int, access: Perm = Perm.R) -> int:
        """Translate a virtual address, enforcing permissions.

        Raises ``SegmentationFault`` for unmapped pages, ``ProtectionFault``
        for permission violations, and ``CowFault`` when a write hits a
        copy-on-write page (kernel resolves it and retries).
        """
        va_page = vaddr >> PAGE_SHIFT
        entry = self._pages.get(va_page)
        if entry is None:
            raise SegmentationFault(vaddr, access=_describe(access))
        # The permission check runs once per simulated memory access, so
        # it works on the members' raw ints: Flag.__and__, Flag.value and
        # hashing a member all resolve through Python-level enum code.
        wanted = access._value_
        if wanted & ~entry.perms._value_:
            raise ProtectionFault(vaddr, access=_describe(access))
        if wanted & _W_BIT and entry.cow:
            raise CowFault(va_page)
        return (entry.frame << PAGE_SHIFT) | (vaddr & (PAGE_SIZE - 1))

    def translate_nofault(self, vaddr: int) -> int | None:
        """Permission-blind translation (the PTEditor/pagemap primitive).

        Returns None for unmapped addresses instead of faulting.  Only
        privileged callers may use this; the kernel enforces that.
        """
        entry = self._pages.get(vaddr >> PAGE_SHIFT)
        if entry is None:
            return None
        return (entry.frame << PAGE_SHIFT) | (vaddr & (PAGE_SIZE - 1))

    def __len__(self) -> int:
        return len(self._pages)

    def __repr__(self) -> str:
        return f"AddressSpace(pages={len(self._pages)})"


def _describe(access: Perm) -> str:
    if access & Perm.W:
        return "write"
    if access & Perm.X:
        return "execute"
    return "load"
