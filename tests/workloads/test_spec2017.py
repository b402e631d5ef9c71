"""Tests for the SPEC2017-like workload generators."""

import pytest

from repro.cpu.machine import Machine
from repro.workloads.spec2017 import (
    SPEC2017,
    WorkloadSpec,
    _pow2_mask,
    build_workload,
    prefill,
)


class TestSpecs:
    def test_ten_benchmarks(self):
        assert len(SPEC2017) == 10

    def test_names_match_fig12(self):
        assert set(SPEC2017) == {
            "perlbench", "gcc", "mcf", "omnetpp", "xalancbmk",
            "x264", "deepsjeng", "leela", "exchange2", "xz",
        }

    def test_fractions_validated(self):
        with pytest.raises(ValueError):
            WorkloadSpec("bad", racing_loads=1.5, aliasing=0.0,
                         agen_depth=1, footprint_pages=1, alu_ratio=0.1)
        with pytest.raises(ValueError):
            WorkloadSpec("bad", racing_loads=0.1, aliasing=-0.1,
                         agen_depth=1, footprint_pages=1, alu_ratio=0.1)

    def test_headliners_are_store_forward_heavy(self):
        """perlbench/exchange2 carry the largest racing-load fractions
        (the Fig 12 >20% overhead pair)."""
        racing = {name: spec.racing_loads for name, spec in SPEC2017.items()}
        top_two = sorted(racing, key=racing.get, reverse=True)[:2]
        assert set(top_two) == {"perlbench", "exchange2"}


class TestPow2Mask:
    def test_exact_power(self):
        assert _pow2_mask(4096) == 4096 - 8

    def test_non_power_rounds_down(self):
        assert _pow2_mask(3 * 4096) == 2 * 4096 - 8

    def test_alignment(self):
        for pages in (1, 3, 5, 17):
            assert _pow2_mask(pages * 4096) % 8 == 0


class TestBuildWorkload:
    def test_deterministic(self):
        spec = SPEC2017["gcc"]
        a = build_workload(spec, data_base=0x1000, operations=50, seed=3)
        b = build_workload(spec, data_base=0x1000, operations=50, seed=3)
        assert a.instructions == b.instructions

    def test_seed_changes_program(self):
        spec = SPEC2017["gcc"]
        a = build_workload(spec, data_base=0x1000, operations=50, seed=3)
        b = build_workload(spec, data_base=0x1000, operations=50, seed=4)
        assert a.instructions != b.instructions

    def test_runs_to_completion(self):
        machine = Machine(seed=9)
        process = machine.kernel.create_process("w")
        spec = SPEC2017["leela"]
        data = machine.kernel.map_anonymous(process, pages=spec.footprint_pages)
        prefill(machine.kernel, process, data, spec.footprint_pages)
        program = machine.load_program(
            process, build_workload(spec, data, operations=100)
        )
        result = machine.run(process, program, max_steps=500_000)
        assert result.cycles > 0
        assert result.fault is None

    def test_all_specs_execute(self):
        for name, spec in SPEC2017.items():
            machine = Machine(seed=1)
            process = machine.kernel.create_process(name)
            data = machine.kernel.map_anonymous(process, pages=spec.footprint_pages)
            prefill(machine.kernel, process, data, spec.footprint_pages)
            program = machine.load_program(
                process, build_workload(spec, data, operations=60)
            )
            machine.run(process, program, max_steps=500_000)
