"""Bounds and eviction of the content-keyed decode LRU.

Campaign workloads rebuild ``Program`` objects constantly, so the
shared decoded forms (:mod:`repro.cpu.isa`) sit in an LRU bounded by
``DECODE_CACHE_SIZE`` and keyed by the instruction sequence.  These
tests pin the contract that makes the bound safe: eviction never
changes behaviour (an evicted entry is rebuilt, not lost) and recency
protects the working set.
"""

import pytest

from repro.cpu import isa
from repro.cpu.isa import DECODE_CACHE_SIZE, AluImm, Halt, MovImm, Program
from repro.cpu.machine import Machine


def make_program(value, name="cache-test"):
    return Program(
        [MovImm("a", value), AluImm("b", "a", 1, "add"), Halt()],
        name=name,
    )


def fill(values):
    """Push one fresh sequence per value through the LRU."""
    for value in values:
        make_program(value)


@pytest.fixture
def cold_decode_cache():
    isa._decode.cache_clear()
    yield
    isa._decode.cache_clear()


class TestDecodeCacheBounds:
    def test_occupancy_never_exceeds_bound(self, cold_decode_cache):
        fill(range(DECODE_CACHE_SIZE + 6))
        info = isa._decode.cache_info()
        assert info.currsize == info.maxsize == DECODE_CACHE_SIZE
        assert info.misses == DECODE_CACHE_SIZE + 6

    def test_fresh_instance_hits_shared_cache(self, cold_decode_cache):
        template = make_program(7)
        first = template.decoded()
        before = isa._decode.cache_info().hits
        # A brand-new Program around the same content shares the
        # template's decoded form, as a relocated copy does.
        fresh = make_program(7).decoded()
        moved = template.relocate(0x3000)
        assert isa._decode.cache_info().hits == before + 1
        assert fresh is first
        assert moved.decoded() is first
        assert moved.iva(1) == 0x3000 + template.iva(1)

    def test_eviction_is_lru_ordered(self, cold_decode_cache):
        fill(range(DECODE_CACHE_SIZE))
        # Touch the oldest content via a fresh instance, then overflow
        # by one: the evictee must be value=1, not the refreshed value=0.
        make_program(0)
        make_program(10_000)
        hits = isa._decode.cache_info().hits
        make_program(0)  # still cached
        assert isa._decode.cache_info().hits == hits + 1
        make_program(1)  # evicted: decodes again
        assert isa._decode.cache_info().hits == hits + 1

    def test_evicted_content_is_rebuilt_identically(self, cold_decode_cache):
        first = make_program(10_005).decoded()
        fill(range(DECODE_CACHE_SIZE))  # flush value=10_005 out of the LRU
        rebuilt = make_program(10_005).decoded()
        assert rebuilt is not first
        assert rebuilt == first


class TestCompileCacheBounds:
    """The decode LRU as the machine sees it: fresh programs built after
    their content was evicted run exactly as before."""

    def test_eviction_does_not_change_results(self, cold_decode_cache):
        machine = Machine(seed=1)
        process = machine.kernel.create_process("p")

        def run_all():
            return [
                machine.run(
                    process,
                    machine.load_program(process, make_program(value, name=f"p{value}")),
                ).regs["b"]
                for value in range(10_000, 10_008)
            ]

        first = run_all()
        fill(range(DECODE_CACHE_SIZE))  # evict all eight
        second = run_all()
        assert first == second == [value + 1 for value in range(10_000, 10_008)]
        assert isa._decode.cache_info().misses >= 16 + DECODE_CACHE_SIZE
