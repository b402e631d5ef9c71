"""Kernel tests: fork/COW, mmap, mprotect, scheduling flush semantics.

These reproduce the mechanics behind the paper's Section III-C selection
experiments and the Section IV-A isolation findings.
"""

import pytest

from repro.cpu.core import Core
from repro.errors import ProtectionFault
from repro.mem.physical import PAGE_SIZE
from repro.osm.address_space import Perm
from repro.osm.domains import SecurityDomain
from repro.osm.kernel import Kernel
from repro.osm.process import ProcessState


@pytest.fixture()
def kernel():
    return Kernel(Core(seed=7))


@pytest.fixture()
def process(kernel):
    return kernel.create_process("victim")


class TestProcessLifecycle:
    def test_pids_increment(self, kernel):
        a = kernel.create_process("a")
        b = kernel.create_process("b")
        assert (a.pid, b.pid) == (1, 2)

    def test_domain(self, kernel):
        kthread = kernel.create_process("kworker", SecurityDomain.KERNEL)
        assert kthread.privileged
        assert not kernel.create_process("user").privileged


class TestMapping:
    def test_map_anonymous_readback(self, kernel, process):
        base = kernel.map_anonymous(process, pages=2)
        kernel.write(process, base + 100, b"hello")
        assert kernel.read(process, base + 100, 5) == b"hello"

    def test_map_anonymous_distinct_frames(self, kernel, process):
        base = kernel.map_anonymous(process, pages=2)
        f0 = process.address_space.mapping(base >> 12).frame
        f1 = process.address_space.mapping((base >> 12) + 1).frame
        assert f0 != f1

    def test_frames_are_randomized(self):
        frames_a = Kernel(Core(seed=1)).allocate_frame()
        frames_b = Kernel(Core(seed=2)).allocate_frame()
        assert frames_a != frames_b  # overwhelmingly likely by construction

    def test_write_without_permission_faults(self, kernel, process):
        base = kernel.map_anonymous(process, pages=1, perms=Perm.R)
        with pytest.raises(ProtectionFault):
            kernel.write(process, base, b"x")

    def test_loader_write_ignores_permissions(self, kernel, process):
        base = kernel.map_anonymous(process, pages=1, perms=Perm.RX)
        kernel.write(process, base, b"\x90\x90", force=True)
        assert kernel.read(process, base, 2) == b"\x90\x90"

    def test_cross_page_write(self, kernel, process):
        base = kernel.map_anonymous(process, pages=2)
        kernel.write(process, base + PAGE_SIZE - 2, b"abcd")
        assert kernel.read(process, base + PAGE_SIZE - 2, 4) == b"abcd"


class TestForkCow:
    """The Section III-C.1 experiment mechanics."""

    def test_fork_shares_ipa_initially(self, kernel, process):
        """After fork, parent and child stld share IVA *and* IPA."""
        base = kernel.map_anonymous(process, pages=1, perms=Perm.RX, kind="code")
        kernel.write(process, base, b"stld-code", force=True)
        child = kernel.fork(process)
        parent_pa = process.address_space.translate_nofault(base)
        child_pa = child.address_space.translate_nofault(base)
        assert parent_pa == child_pa

    def test_cow_break_changes_child_ipa(self, kernel, process):
        """mprotect + dummy write remaps the child's page: same IVA,
        different IPA — the step that broke the collision in the paper."""
        base = kernel.map_anonymous(process, pages=1, perms=Perm.RX, kind="code")
        kernel.write(process, base, b"stld-code", force=True)
        child = kernel.fork(process)
        kernel.mprotect(child, base, pages=1, perms=Perm.RWX)
        kernel.write(child, base + 64, b"dummy")
        parent_pa = process.address_space.translate_nofault(base)
        child_pa = child.address_space.translate_nofault(base)
        assert parent_pa != child_pa
        # The code bytes were preserved by the copy.
        assert kernel.read(child, base, 9) == b"stld-code"

    def test_cow_preserves_parent_view(self, kernel, process):
        base = kernel.map_anonymous(process, pages=1)
        kernel.write(process, base, b"original")
        child = kernel.fork(process)
        kernel.write(child, base, b"modified")
        assert kernel.read(process, base, 8) == b"original"
        assert kernel.read(child, base, 8) == b"modified"

    def test_single_ref_cow_resolves_in_place(self, kernel, process):
        """When only one mapping remains, the COW flag clears without copy."""
        base = kernel.map_anonymous(process, pages=1)
        kernel.write(process, base, b"x")
        child = kernel.fork(process)
        kernel.write(child, base, b"y")  # child copies away
        frame_before = process.address_space.mapping(base >> 12).frame
        kernel.write(process, base, b"z")  # parent is now sole owner
        assert process.address_space.mapping(base >> 12).frame == frame_before

    def test_fork_inherits_layout_cursors(self, kernel, process):
        child = kernel.fork(process)
        assert process.reserve_range(1, "code") == child.reserve_range(1, "code")


class TestSharedMmap:
    def test_same_ipa_different_iva(self, kernel, process):
        """mmap-shared: same IPA reachable at different IVAs — the final
        Section III-C.1 experiment."""
        other = kernel.create_process("attacker")
        kernel.map_anonymous(other, pages=3)  # skew the mmap cursor? no: data
        base = kernel.map_anonymous(process, pages=1, perms=Perm.RX, kind="code")
        shared = kernel.map_shared(other, process, base, pages=1)
        assert (
            process.address_space.translate_nofault(base)
            == other.address_space.translate_nofault(shared)
        )

    def test_shared_pages_survive_fork_as_shared(self, kernel, process):
        other = kernel.create_process("attacker")
        base = kernel.map_anonymous(process, pages=1)
        kernel.map_shared(other, process, base, pages=1)
        child = kernel.fork(process)
        kernel.write(child, base, b"w")  # shared: no COW copy
        assert kernel.read(process, base, 1) == b"w"

    def test_unmapped_source_rejected(self, kernel, process):
        other = kernel.create_process("attacker")
        with pytest.raises(Exception):
            kernel.map_shared(other, process, 0xDEAD0000, pages=1)


class TestSchedulingFlushes:
    """Section IV-A: what survives a context switch, syscall, and sleep."""

    def _train_both(self, kernel, process):
        thread = kernel.core.thread(0)
        kernel.schedule(process)
        unit = thread.unit
        # PSFP entry + SSBP entry, as after (7n,a,...) training.
        unit.psfp.update(1, 2, 4, 16, 2)
        unit.ssbp.update(2, 15, 3)
        return thread

    def test_context_switch_flushes_psfp_not_ssbp(self, kernel, process):
        thread = self._train_both(kernel, process)
        attacker = kernel.create_process("attacker")
        kernel.schedule(attacker)
        assert thread.unit.psfp.occupancy == 0
        assert thread.unit.ssbp.occupancy == 1  # Vulnerability 1

    def test_reschedule_same_process_keeps_psfp(self, kernel, process):
        thread = self._train_both(kernel, process)
        kernel.schedule(process)
        assert thread.unit.psfp.occupancy == 1

    def test_syscall_flushes_psfp(self, kernel, process):
        thread = self._train_both(kernel, process)
        kernel.syscall(process)
        assert thread.unit.psfp.occupancy == 0
        assert thread.unit.ssbp.occupancy == 1

    def test_sleep_flushes_both(self, kernel, process):
        thread = self._train_both(kernel, process)
        kernel.sleep(process)
        assert thread.unit.psfp.occupancy == 0
        assert thread.unit.ssbp.occupancy == 0
        assert process.state is ProcessState.SLEEPING
        kernel.wake(process)
        assert process.state is ProcessState.READY

    def test_mitigation_flushes_ssbp_on_switch(self):
        kernel = Kernel(Core(seed=7), flush_ssbp_on_switch=True)
        victim = kernel.create_process("victim")
        thread = kernel.core.thread(0)
        kernel.schedule(victim)
        thread.unit.ssbp.update(2, 15, 3)
        kernel.schedule(kernel.create_process("attacker"))
        assert thread.unit.ssbp.occupancy == 0

    def test_smt_threads_are_partitioned(self, kernel, process):
        """Training on thread 0 must not leak into thread 1's predictors."""
        thread0 = self._train_both(kernel, process)
        thread1 = kernel.core.thread(1)
        assert thread0.unit.ssbp.occupancy == 1
        assert thread1.unit.ssbp.occupancy == 0
        assert thread1.unit is not thread0.unit


class TestPagemapPrivilege:
    def test_kernel_thread_may_translate(self, kernel, process):
        base = kernel.map_anonymous(process, pages=1)
        kthread = kernel.create_process("kworker", SecurityDomain.KERNEL)
        assert kernel.physical_address(process, base, caller=kthread) is not None

    def test_user_process_may_not(self, kernel, process):
        base = kernel.map_anonymous(process, pages=1)
        user = kernel.create_process("attacker")
        with pytest.raises(ProtectionFault):
            kernel.physical_address(process, base, caller=user)
