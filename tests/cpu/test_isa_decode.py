"""The decoded form of :meth:`repro.cpu.isa.Program.decoded`.

The pipeline interprets the decoded dense form.  A ``Program`` is
immutable, so its decoded form is built once per instruction sequence,
at construction, and shared by every program around that sequence:
relocated copies and fresh instances alike.  These tests pin the dense
layout and that sharing.
"""

from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu import isa
from repro.cpu.isa import (
    OP_ALUIMM,
    OP_HALT,
    OP_JZ,
    OP_LOAD,
    OP_MOVIMM,
    AluImm,
    Halt,
    Jz,
    Label,
    Load,
    MovImm,
    Program,
)
from repro.errors import ConfigError
from repro.fuzz.gen import GENERATORS, build_program
from repro.revng.stld import build_stld


def sample_program(base=0):
    return Program(
        [
            MovImm("a", 7),
            AluImm("b", "a", 1, "add"),
            Jz("b", "done"),
            Load("c", base="a", width=8),
            Label("done"),
            Halt(),
        ],
        base_iva=base,
        name="decode-test",
    )


class TestDecodedForm:
    def test_dense_form_matches_instructions(self):
        program = sample_program()
        dec = program.decoded()
        assert dec.insts == program.instructions
        assert dec.ops[0] == OP_MOVIMM
        assert dec.ops[1] == OP_ALUIMM
        assert dec.ops[2] == OP_JZ
        assert dec.ops[3] == OP_LOAD
        assert dec.ops[5] == OP_HALT
        # Jz operands resolve the label to its instruction index.
        cond, target, label = dec.args[2]
        assert (cond, label) == ("b", "done")
        assert target == 4
        # IVAs come from the layout.
        assert [program.base_iva + offset for offset in dec.offsets] == [
            program.iva(i) for i in range(len(program))
        ]

    def test_repeat_calls_reuse_cache(self):
        program = sample_program()
        assert program.decoded() is program.decoded()

    def test_relocated_program_decodes_at_new_base(self):
        program = sample_program(base=0)
        moved = program.relocate(0x2000)
        assert moved.iva(0) == 0x2000
        assert moved.decoded() is program.decoded()

    def test_second_template_shares_the_first_and_is_frozen(self):
        first, second = build_stld(), build_stld()
        moved = second.relocate(0x4000)
        assert moved.decoded() is first.decoded()
        assert moved.instructions is second.instructions
        assert type(moved.instructions) is tuple
        with pytest.raises(FrozenInstanceError):
            moved.base_iva = 0


class TestRelocation:
    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(sorted(GENERATORS)),
        st.integers(0, 10_000),
        st.integers(1, 30),
        st.integers(0, 1 << 40),
        st.integers(0, 1 << 40),
    )
    def test_relocated_decode_matches_cold_decode(
        self, generator, seed, blocks, base, new_base
    ):
        template = Program(build_program(generator, seed, blocks), base)
        moved = template.relocate(new_base)
        cold = isa._decode.__wrapped__(template.instructions)
        assert cold.ops is not moved.decoded().ops  # really decoded afresh
        assert moved.decoded() == cold  # every field
        assert [moved.iva(i) for i in range(len(moved))] == [
            new_base + offset for offset in cold.offsets
        ]

    def test_duplicate_label_raises_at_construction(self):
        program = sample_program()
        with pytest.raises(ConfigError, match="duplicate label"):
            Program(program.instructions + (Label("done"),))
