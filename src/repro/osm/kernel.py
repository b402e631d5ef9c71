"""The simulated kernel: frames, processes, fork/mmap/mprotect, scheduling.

This is the substrate for the paper's Section III-C selection experiments
(fork + copy-on-write, mprotect-triggered remap, shared mmap) and the
Section IV-A isolation experiments (context-switch and sleep flush
semantics, cross-domain scheduling on one hardware thread).

Frame allocation is randomized (deterministically, via the core's seeded
RNG) because the predictor-selection hash consumes *physical* addresses:
an unprivileged attacker must not be able to predict them, which is
exactly why the paper's attacks search for collisions by probing.
"""

from __future__ import annotations

from collections import Counter

from repro.cpu.core import Core
from repro.cpu.thread import HardwareThread
from repro.errors import ConfigError, ProtectionFault, ReproError
from repro.mem.physical import PAGE_SHIFT, PAGE_SIZE
from repro.osm.address_space import CowFault, Perm
from repro.osm.domains import SecurityDomain
from repro.osm.process import Process, ProcessState

__all__ = ["Kernel"]

_FRAME_POOL_LO = 0x0000_0010
_FRAME_POOL_HI = 0x0100_0000  # 24-bit frame numbers: plenty of hash variety


class Kernel:
    """Owns processes, physical frames and the scheduling of hw threads."""

    def __init__(
        self,
        core: Core,
        flush_ssbp_on_switch: bool = False,
        resalt_on_switch: bool = False,
    ) -> None:
        self.core = core
        self.memory = core.memory
        self.rng = core.rng
        #: Section VI-B mitigation: flush SSBP on every context switch.
        self.flush_ssbp_on_switch = flush_ssbp_on_switch
        #: Section VI-B mitigation: randomized selection — re-key the
        #: predictor hash on every context switch/system call, so
        #: collisions found by code sliding go stale before use.
        self.resalt_on_switch = resalt_on_switch
        self._processes: dict[int, Process] = {}
        self._next_pid = 1
        self._used_frames: set[int] = set()
        self._frame_refs: Counter[int] = Counter()
        self.stats = Counter()

    # ------------------------------------------------------------------
    # Frames
    # ------------------------------------------------------------------
    def allocate_frame(self) -> int:
        """Pick an unused physical frame at random (deterministic RNG)."""
        for _ in range(64):
            frame = self.rng.randrange(_FRAME_POOL_LO, _FRAME_POOL_HI)
            if frame not in self._used_frames:
                self._used_frames.add(frame)
                self._frame_refs[frame] = 1
                return frame
        raise ConfigError("physical frame pool exhausted")

    def allocate_frame_run(self, count: int, base_frame: int | None = None) -> int:
        """Claim ``count`` physically *contiguous* frames; returns the base.

        With ``base_frame`` the run is placed exactly there (the caller
        models an allocator whose placement is the secret under study);
        otherwise a free run is picked at random.  Contiguous physical
        runs are what hugepage/CMA-style allocations produce, and their
        base is exactly the kind of address the SPOILER-style probe of
        :mod:`repro.attacks.aslr` goes after.
        """
        if count < 1:
            raise ConfigError(f"frame run length must be >= 1, got {count}")
        for _ in range(64):
            base = (
                base_frame
                if base_frame is not None
                else self.rng.randrange(_FRAME_POOL_LO, _FRAME_POOL_HI - count)
            )
            run = range(base, base + count)
            if base < _FRAME_POOL_LO or base + count > _FRAME_POOL_HI:
                raise ConfigError(f"frame run {base:#x}+{count} outside the pool")
            if all(frame not in self._used_frames for frame in run):
                for frame in run:
                    self._used_frames.add(frame)
                    self._frame_refs[frame] = 1
                return base
            if base_frame is not None:
                raise ConfigError(f"frame run at {base_frame:#x} is not free")
        raise ConfigError("no free contiguous frame run found")

    # ------------------------------------------------------------------
    # Processes
    # ------------------------------------------------------------------
    def create_process(
        self, name: str, domain: SecurityDomain = SecurityDomain.USER
    ) -> Process:
        process = Process(self._next_pid, name, domain)
        self._processes[process.pid] = process
        self._next_pid += 1
        self.stats["process_created"] += 1
        return process

    def process(self, pid: int) -> Process:
        return self._processes[pid]

    def fork(self, parent: Process) -> Process:
        """Clone the parent with copy-on-write pages (Section III-C.1).

        Shared mappings stay shared; private pages keep their frame but
        are marked COW in both parent and child, so the first write by
        either side copies the page to a fresh frame — changing its
        physical address, and with it the predictor selection hash.
        """
        child = self.create_process(f"{parent.name}-child", parent.domain)
        child.parent_pid = parent.pid
        parent.clone_layout_into(child)
        for va_page, mapping in parent.address_space.pages().items():
            if mapping.shared:
                child.address_space.map_page(
                    va_page, mapping.frame, mapping.perms, shared=True
                )
            else:
                mapping.cow = True
                child.address_space.map_page(
                    va_page, mapping.frame, mapping.perms, cow=True
                )
            self._frame_refs[mapping.frame] += 1
        self.stats["fork"] += 1
        return child

    # ------------------------------------------------------------------
    # Mapping syscalls
    # ------------------------------------------------------------------
    def map_anonymous(
        self,
        process: Process,
        pages: int,
        perms: Perm = Perm.RW,
        kind: str = "data",
    ) -> int:
        """Anonymous private mapping; returns the base virtual address."""
        base = process.reserve_range(pages, kind)
        for index in range(pages):
            frame = self.allocate_frame()
            process.address_space.map_page((base >> PAGE_SHIFT) + index, frame, perms)
        self.stats["map_anonymous"] += 1
        return base

    def map_contiguous(
        self,
        process: Process,
        pages: int,
        perms: Perm = Perm.RW,
        kind: str = "data",
        base_frame: int | None = None,
    ) -> tuple[int, int]:
        """Map ``pages`` backed by one contiguous physical frame run.

        Returns ``(base_va, base_frame)``.  Unlike :meth:`map_anonymous`
        the physical layout is sequential — page ``i`` sits in frame
        ``base_frame + i`` — which is the structure a loaded kernel or a
        hugepage-backed region has, and the structure the ASLR
        derandomization attack exploits.
        """
        base_frame = self.allocate_frame_run(pages, base_frame)
        base = process.reserve_range(pages, kind)
        for index in range(pages):
            process.address_space.map_page(
                (base >> PAGE_SHIFT) + index, base_frame + index, perms
            )
        self.stats["map_contiguous"] += 1
        return base, base_frame

    def map_shared(
        self,
        process: Process,
        source: Process,
        source_vaddr: int,
        pages: int,
        perms: Perm | None = None,
    ) -> int:
        """Map the source's frames into ``process`` (mmap MAP_SHARED).

        The two processes end up with (generally different) IVAs backed by
        identical IPAs — the last step of the paper's selection experiment.
        """
        base = process.reserve_range(pages, "mmap")
        for index in range(pages):
            src_mapping = source.address_space.mapping(
                (source_vaddr >> PAGE_SHIFT) + index
            )
            if src_mapping is None:
                raise ReproError("source range is not fully mapped")
            src_mapping.shared = True
            process.address_space.map_page(
                (base >> PAGE_SHIFT) + index,
                src_mapping.frame,
                perms if perms is not None else src_mapping.perms,
                shared=True,
            )
            self._frame_refs[src_mapping.frame] += 1
        self.stats["map_shared"] += 1
        return base

    def mprotect(
        self, process: Process, vaddr: int, pages: int, perms: Perm
    ) -> None:
        """Change page permissions (keeps COW/shared flags intact)."""
        for index in range(pages):
            mapping = process.address_space.mapping((vaddr >> PAGE_SHIFT) + index)
            if mapping is None:
                raise ProtectionFault(vaddr + index * PAGE_SIZE, access="mprotect")
            mapping.perms = perms
        self.stats["mprotect"] += 1

    # ------------------------------------------------------------------
    # Memory access with COW resolution
    # ------------------------------------------------------------------
    def translate(
        self,
        process: Process,
        vaddr: int,
        access: Perm = Perm.R,
    ) -> int:
        """Translate on behalf of a process, resolving COW write faults."""
        while True:
            try:
                paddr = process.address_space.translate(vaddr, access)
            except CowFault as fault:
                self._resolve_cow(process, fault.va_page)
                continue
            return paddr

    def _resolve_cow(self, process: Process, va_page: int) -> None:
        mapping = process.address_space.mapping(va_page)
        assert mapping is not None and mapping.cow
        if self._frame_refs[mapping.frame] > 1:
            new_frame = self.allocate_frame()
            self.memory.copy_frame(mapping.frame, new_frame)
            self._frame_refs[mapping.frame] -= 1
            mapping.frame = new_frame
        mapping.cow = False
        self.stats["cow_break"] += 1

    def read(self, process: Process, vaddr: int, length: int) -> bytes:
        out = bytearray()
        while length:
            paddr = self.translate(process, vaddr, Perm.R)
            chunk = min(length, PAGE_SIZE - (vaddr & (PAGE_SIZE - 1)))
            out += self.memory.read(paddr, chunk)
            vaddr += chunk
            length -= chunk
        return bytes(out)

    def write(
        self, process: Process, vaddr: int, data: bytes, force: bool = False
    ) -> None:
        """Write process memory; ``force=True`` is the loader path that
        ignores the W permission (but still honours COW)."""
        view = memoryview(data)
        while view:
            access = Perm.W
            if force:
                mapping = process.address_space.mapping(vaddr >> PAGE_SHIFT)
                if mapping is not None and mapping.cow:
                    self._resolve_cow(process, vaddr >> PAGE_SHIFT)
                paddr = process.address_space.translate_nofault(vaddr)
                if paddr is None:
                    raise ProtectionFault(vaddr, access="loader-write")
            else:
                paddr = self.translate(process, vaddr, access)
            chunk = min(len(view), PAGE_SIZE - (vaddr & (PAGE_SIZE - 1)))
            self.memory.write(paddr, view[:chunk].tobytes())
            vaddr += chunk
            view = view[chunk:]

    # Only its unit test calls it; kept as the paper's privileged primitive.
    def physical_address(self, process: Process, vaddr: int, caller: Process) -> int:
        """The PTEditor/pagemap primitive: IVA -> IPA, privileged only."""
        if not caller.privileged:
            raise ProtectionFault(vaddr, access="pagemap")
        paddr = process.address_space.translate_nofault(vaddr)
        if paddr is None:
            raise ProtectionFault(vaddr, access="pagemap")
        return paddr

    # ------------------------------------------------------------------
    # Scheduling and flush semantics (Section IV-A)
    # ------------------------------------------------------------------
    def schedule(self, process: Process, thread_id: int = 0) -> None:
        """Run ``process`` on a hardware thread.

        Switching to a *different* process flushes PSFP;
        SSBP survives — Vulnerability 1.  Rescheduling the same process
        is a no-op.
        """
        thread = self.core.thread(thread_id)
        if thread.current_pid == process.pid:
            return
        previous = (
            self._processes.get(thread.current_pid)
            if thread.current_pid is not None
            else None
        )
        if previous is not None and previous.state is ProcessState.RUNNING:
            previous.state = ProcessState.READY
        thread.on_context_switch(process.pid, flush_ssbp=self.flush_ssbp_on_switch)
        self._maybe_resalt(thread)
        process.state = ProcessState.RUNNING
        self.stats["context_switch"] += 1

    def preempt(self, process: Process, thread_id: int = 0) -> None:
        """Involuntary switch to ``process`` (timer tick / interloper).

        Flush semantics are identical to a voluntary switch — the
        hardware cannot tell why the kernel switched — but the event is
        accounted separately on both the kernel and the hardware thread,
        because preemption *frequency* is what the interference model
        sweeps and the robustness experiments report.
        """
        thread = self.core.thread(thread_id)
        if thread.current_pid != process.pid:
            thread.preemptions += 1
            self.stats["preemption"] += 1
        self.schedule(process, thread_id)

    def syscall(self, process: Process, thread_id: int = 0) -> None:
        """A system call (or sched_yield) round-trips through the kernel:
        the paper observes this flushes PSFP but not SSBP."""
        thread = self.core.thread(thread_id)
        thread.unit.on_context_switch(flush_ssbp=self.flush_ssbp_on_switch)
        self._maybe_resalt(thread)
        self.stats["syscall"] += 1

    def sleep(self, process: Process, thread_id: int = 0) -> None:
        """``sleep`` suspends the process; both predictors are flushed."""
        thread = self.core.thread(thread_id)
        process.state = ProcessState.SLEEPING
        if thread.current_pid == process.pid:
            thread.on_suspend()
            thread.current_pid = None
        self.stats["sleep"] += 1

    def _maybe_resalt(self, thread: HardwareThread) -> None:
        if self.resalt_on_switch:
            thread.unit.hash_salt = self.rng.getrandbits(48)

    def wake(self, process: Process) -> None:
        if process.state is ProcessState.SLEEPING:
            process.state = ProcessState.READY

    def __repr__(self) -> str:
        return (
            f"Kernel(processes={len(self._processes)}, "
            f"flush_ssbp_on_switch={self.flush_ssbp_on_switch})"
        )
