"""Simulated physical memory: a sparse, frame-granular byte store.

Physical memory is addressed by 48-bit physical addresses and allocated in
4 KiB frames.  Frames are created lazily (zero-filled) the first time they
are touched, so experiments can use sparse layouts without cost.

Data correctness lives here; the cache hierarchy (:mod:`repro.mem.cache`)
only models *presence and timing*.  This mirrors how the attacks work: a
load that speculatively bypasses a pending store simply reads the old
bytes from memory, because the store's data is still sitting in the store
queue (:mod:`repro.mem.store_queue`).
"""

from __future__ import annotations

from repro.errors import ConfigError

__all__ = ["PAGE_SHIFT", "PAGE_SIZE", "PhysicalMemory"]

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
_PHYS_BITS = 48
_PHYS_LIMIT = 1 << _PHYS_BITS


class PhysicalMemory:
    """Sparse physical memory with byte and little-endian word access."""

    def __init__(self, size: int = _PHYS_LIMIT) -> None:
        if not 0 < size <= _PHYS_LIMIT:
            raise ConfigError(f"physical memory size out of range: {size}")
        self.size = size
        self._frames: dict[int, bytearray] = {}

    # ------------------------------------------------------------------
    # Frame helpers
    # ------------------------------------------------------------------
    def _frame(self, paddr: int) -> tuple[bytearray, int]:
        if not 0 <= paddr < self.size:
            raise ValueError(f"physical address out of range: {paddr:#x}")
        number = paddr >> PAGE_SHIFT
        frame = self._frames.get(number)
        if frame is None:
            frame = bytearray(PAGE_SIZE)
            self._frames[number] = frame
        return frame, paddr & (PAGE_SIZE - 1)

    @property
    def resident_frames(self) -> int:
        """Number of frames that have been touched."""
        return len(self._frames)

    # ------------------------------------------------------------------
    # Byte access
    # ------------------------------------------------------------------
    def read(self, paddr: int, length: int) -> bytes:
        """Read ``length`` bytes, possibly crossing frame boundaries."""
        if length < 0:
            raise ValueError("negative read length")
        if 0 < length <= PAGE_SIZE - (paddr & (PAGE_SIZE - 1)):
            # Common case: the access fits inside one frame.
            frame, offset = self._frame(paddr)
            return bytes(frame[offset : offset + length])
        out = bytearray()
        while length:
            frame, offset = self._frame(paddr)
            chunk = min(length, PAGE_SIZE - offset)
            out += frame[offset : offset + chunk]
            paddr += chunk
            length -= chunk
        return bytes(out)

    def write(self, paddr: int, data: bytes) -> None:
        """Write bytes, possibly crossing frame boundaries."""
        length = len(data)
        if 0 < length <= PAGE_SIZE - (paddr & (PAGE_SIZE - 1)):
            # Common case: the access fits inside one frame.
            frame, offset = self._frame(paddr)
            frame[offset : offset + length] = data
            return
        view = memoryview(data)
        while view:
            frame, offset = self._frame(paddr)
            chunk = min(len(view), PAGE_SIZE - offset)
            frame[offset : offset + chunk] = view[:chunk]
            paddr += chunk
            view = view[chunk:]

    def copy_frame(self, src_frame: int, dst_frame: int) -> None:
        """Copy one whole frame (used by the kernel's copy-on-write)."""
        source = self._frames.get(src_frame)
        frame, _ = self._frame(dst_frame << PAGE_SHIFT)
        if source is None:
            frame[:] = bytes(PAGE_SIZE)
        else:
            frame[:] = source

    def __repr__(self) -> str:
        return f"PhysicalMemory(resident_frames={self.resident_frames})"
