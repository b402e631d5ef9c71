"""The fence advisor: minimal placement with re-scan proof."""

import pytest

from repro.cpu.isa import Halt, Load, Mfence, MovImm, Store
from repro.errors import ConfigError
from repro.fuzz.gen import build_program
from repro.mitigations.fences import fence_after, fence_after_stores
from repro.static.advisor import advise


def count_fences(instructions):
    return sum(isinstance(instruction, Mfence) for instruction in instructions)


class TestFenceAfter:
    def test_inserts_after_each_index(self):
        program = [MovImm("a", 1), MovImm("b", 2), Halt()]
        patched = fence_after(program, [0, 1])
        assert [type(i).__name__ for i in patched] == [
            "MovImm", "Mfence", "MovImm", "Mfence", "Halt",
        ]

    def test_duplicates_collapse_and_input_is_untouched(self):
        program = [MovImm("a", 1), Halt()]
        patched = fence_after(program, [0, 0])
        assert count_fences(patched) == 1
        assert count_fences(program) == 0

    def test_out_of_range_raises(self):
        with pytest.raises(ConfigError):
            fence_after([Halt()], [5])
        with pytest.raises(ConfigError):
            fence_after([Halt()], [-1])

    def test_empty_positions_are_a_copy(self):
        program = [Halt()]
        assert fence_after(program, []) == program


class TestAdvise:
    def test_single_edge_gets_a_single_fence(self):
        plan = advise([
            MovImm("v", 7),                    # 0
            Store(base="buf", src="v"),        # 1
            Load("r0", base="buf"),            # 2
            Halt(),                            # 3
        ])
        assert plan.positions == (1,)          # right before the load
        assert not plan.before.clean
        assert plan.bypass_clean
        assert plan.after.clean
        assert isinstance(plan.patched[2], Mfence)

    def test_one_fence_covers_every_load_behind_the_same_store(self):
        plan = advise([
            MovImm("v", 7),                        # 0
            Store(base="buf", src="v", offset=0),  # 1
            Load("r0", base="buf", offset=0),      # 2
            Load("r1", base="buf", offset=0),      # 3
            Halt(),                                # 4
        ])
        assert len(plan.positions) == 1
        assert plan.bypass_clean

    def test_fewer_fences_than_the_blanket_transform(self):
        program = [
            MovImm("v", 7),                          # 0
            Store(base="buf", src="v", offset=0),    # 1
            Store(base="buf", src="v", offset=64),   # 2
            Store(base="buf", src="v", offset=128),  # 3
            Load("r0", base="buf", offset=0),        # 4
            Halt(),                                  # 5
        ]
        plan = advise(program)
        assert plan.bypass_clean
        assert len(plan.positions) < count_fences(fence_after_stores(program))

    def test_clean_program_needs_no_fences(self):
        plan = advise([MovImm("r0", 1), Halt()])
        assert plan.positions == ()
        assert plan.before.clean and plan.after.clean

    def test_residual_gadgets_are_the_unfixable_ones(self):
        plan = advise([
            Load("r0", base="buf"),            # architectural, fence-immune
            Halt(),
        ])
        assert plan.positions == ()
        assert plan.bypass_clean               # nothing spec-fed remains
        assert [g.kind for g in plan.residual] == ["architectural-secret-value"]

    def test_generated_programs_come_out_bypass_clean(self):
        for seed in (5, 9, 23):
            plan = advise(build_program("fuzz-v1", seed, 8), name=f"gen-{seed}")
            assert plan.bypass_clean, f"seed {seed} left spec-channel gadgets"
            spec_before = sum(
                1 for g in plan.before.gadgets if g.channel == "spec"
            )
            if spec_before:
                assert plan.positions
            assert len(plan.after.gadgets) <= len(plan.before.gadgets)

    def test_plan_to_dict_is_json_serializable(self):
        import json

        plan = advise(build_program("fuzz-v1", 5, 8))
        data = json.loads(json.dumps(plan.to_dict()))
        assert data["fences"] == len(plan.positions)
        assert data["bypass_clean"] is plan.bypass_clean
