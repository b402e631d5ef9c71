"""Bounds, eviction and invalidation of the content-keyed decode LRU.

Campaign workloads rebuild ``Program`` objects constantly, so the
shared decode cache (:mod:`repro.cpu.isa`) is a bounded LRU keyed by
the instruction sequence.  These tests pin the contract that makes the bound
safe: eviction never changes behaviour (an evicted entry is rebuilt,
not lost), recency protects the working set, and in-place program edits
invalidate rather than serve stale tables.
"""

import pytest

from repro.cpu import isa
from repro.cpu.isa import AluImm, Halt, MovImm, Program
from repro.cpu.machine import Machine


def make_program(value, name="cache-test"):
    return Program(
        [MovImm("a", value), AluImm("b", "a", 1, "add"), Halt()],
        name=name,
    )


@pytest.fixture
def small_decode_cache(monkeypatch):
    monkeypatch.setattr(isa, "DECODE_CACHE_SIZE", 4)
    isa.clear_decode_cache()
    yield
    isa.clear_decode_cache()


class TestDecodeCacheBounds:
    def test_occupancy_never_exceeds_bound(self, small_decode_cache):
        for value in range(10):
            make_program(value).decoded()
        info = isa.decode_cache_info()
        assert info["size"] <= info["max_size"] == 4
        assert info["evictions"] == 6

    def test_fresh_instance_hits_shared_cache(self, small_decode_cache):
        template = make_program(7)
        first = template.decoded()
        before = isa.decode_cache_info()["hits"]
        # A brand-new Program around the same content, and a relocated
        # copy, share the template's decoded body; only the IVAs move.
        fresh = make_program(7).decoded()
        moved = template.relocate(0x3000).decoded()
        assert isa.decode_cache_info()["hits"] > before
        for dec in (fresh, moved):
            assert dec.ops is first.ops
            assert dec.args is first.args
            assert dec.names is first.names
        assert moved.ivas == [0x3000 + iva for iva in first.ivas]

    def test_eviction_is_lru_ordered(self, small_decode_cache):
        programs = [make_program(value) for value in range(4)]
        for program in programs:
            program.decoded()
        # Touch the oldest content via a fresh instance, then overflow
        # by one: the evictee must be value=1, not the refreshed value=0.
        make_program(0).decoded()
        make_program(99).decoded()
        hits = isa.decode_cache_info()["hits"]
        make_program(0).decoded()  # still cached
        assert isa.decode_cache_info()["hits"] == hits + 1
        make_program(1).decoded()  # evicted: decodes again
        assert isa.decode_cache_info()["hits"] == hits + 1

    def test_evicted_content_is_rebuilt_identically(self, small_decode_cache):
        program = make_program(5)
        first = program.decoded()
        for value in range(10, 20):  # flush value=5 out of the LRU
            make_program(value).decoded()
        rebuilt = make_program(5).decoded()
        assert rebuilt is not first
        assert rebuilt.ops == first.ops
        assert rebuilt.args == first.args
        assert rebuilt.ivas == first.ivas

    def test_clear_resets_counters_and_entries(self, small_decode_cache):
        make_program(1).decoded()
        isa.clear_decode_cache()
        info = isa.decode_cache_info()
        assert info["size"] == 0
        assert info["hits"] == info["misses"] == info["evictions"] == 0

    def test_shrinking_evicts_down(self, small_decode_cache, monkeypatch):
        for value in range(4):
            make_program(value).decoded()
        monkeypatch.setattr(isa, "DECODE_CACHE_SIZE", 2)
        make_program(99).decoded()  # the next insert evicts down to the bound
        assert isa.decode_cache_info()["size"] <= 2


class TestCompileCacheBounds:
    """The decode LRU as the machine sees it: the per-program tables it
    executes from, under a bound small enough to force evictions."""

    def test_inplace_edit_invalidates(self, small_decode_cache):
        program = make_program(3)
        first = program.decoded()
        program.instructions[0] = MovImm("a", 44)
        second = program.decoded()
        assert second is not first
        assert second.args[0] == ("a", 44)

    def test_machine_run_sees_inplace_edit(self, small_decode_cache):
        """End to end: the machine must not execute a stale decode."""
        machine = Machine(seed=1)
        process = machine.kernel.create_process("p")
        program = machine.load_program(
            process, Program([MovImm("a", 1), Halt()], name="edit")
        )
        assert machine.run(process, program).regs["a"] == 1
        program.instructions[0] = MovImm("a", 2)
        assert machine.run(process, program).regs["a"] == 2

    def test_eviction_does_not_change_results(self, small_decode_cache):
        machine = Machine(seed=1)
        process = machine.kernel.create_process("p")
        programs = [
            machine.load_program(process, make_program(value, name=f"p{value}"))
            for value in range(8)
        ]
        first = [machine.run(process, p).regs["b"] for p in programs]
        # Round 2 re-runs every program; half were evicted and re-decode.
        second = [machine.run(process, p).regs["b"] for p in programs]
        assert first == second == [value + 1 for value in range(8)]
        assert isa.decode_cache_info()["evictions"] >= 4
