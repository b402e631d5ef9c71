"""Decode-cache behaviour of :meth:`repro.cpu.isa.Program.decoded`.

The pipeline interprets the decoded dense form, so a stale cache would
silently execute the *old* program after an in-place edit or a base
rebind.  These tests pin the invalidation rules: the base-independent
body follows the instruction sequence, the IVAs follow the base, and a
relocated copy shares its template's body without ever seeing a later
edit of the template or of a sibling copy.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    clear_decode_cache,
    decode_cache_info,
)
from repro.cpu.machine import Machine
from repro.errors import ConfigError
from repro.fuzz.gen import GENERATORS, build_program


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
        assert dec.n == len(program)
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
        assert dec.ivas == [program.iva(i) for i in range(len(program))]

    def test_repeat_calls_reuse_cache(self):
        program = sample_program()
        assert program.decoded() is program.decoded()

    def test_inplace_edit_invalidates(self):
        program = sample_program()
        first = program.decoded()
        program.instructions[0] = MovImm("a", 99)
        second = program.decoded()
        assert second is not first
        assert second.args[0] == ("a", 99)
        # The rebuilt form is cached again.
        assert program.decoded() is second

    def test_length_change_invalidates(self):
        program = sample_program()
        first = program.decoded()
        program.instructions.insert(1, MovImm("z", 1))
        second = program.decoded()
        assert second is not first
        assert second.n == first.n + 1
        # Label target shifted by the insertion.
        assert second.args[3][1] == 5

    def test_base_rebind_invalidates_ivas(self):
        program = sample_program(base=0)
        first = program.decoded()
        program.base_iva = 0x4000
        program._layout()
        second = program.decoded()
        assert second is not first
        assert second.ivas[0] == 0x4000

    def test_relocated_program_decodes_at_new_base(self):
        program = sample_program(base=0)
        program.decoded()
        moved = program.relocate(0x2000)
        assert moved.decoded().ivas[0] == 0x2000

    def test_machine_run_sees_inplace_edit(self):
        """End to end: the interpreter must not execute a stale decode."""
        machine = Machine(seed=1)
        process = machine.kernel.create_process("p")
        program = machine.load_program(
            process, Program([MovImm("a", 1), Halt()], name="edit")
        )
        assert machine.run(process, program).regs["a"] == 1
        program.instructions[0] = MovImm("a", 2)
        assert machine.run(process, program).regs["a"] == 2


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
        template.decoded()
        moved = template.relocate(new_base).decoded()
        clear_decode_cache()
        cold = Program(list(template.instructions), new_base).decoded()
        assert cold.ops is not moved.ops  # really decoded afresh
        assert moved == cold  # every field, ivas included

    def test_inplace_edit_of_copy_leaves_template_and_sibling(self):
        template = sample_program(base=0x1000)
        template_dec = template.decoded()
        copy = template.relocate(0x2000)
        sibling = template.relocate(0x3000)
        copy.decoded()
        sibling_dec = sibling.decoded()
        copy.instructions[0] = MovImm("a", 99)
        assert copy.decoded().args[0] == ("a", 99)
        assert copy.decoded().ivas[0] == 0x2000
        for program, dec in ((template, template_dec), (sibling, sibling_dec)):
            assert program.instructions[0] == MovImm("a", 7)
            assert program.decoded() is dec
            assert dec.args[0] == ("a", 7)

    def test_base_rebind_alone_moves_ivas(self):
        copy = sample_program(base=0x1000).relocate(0x2000)
        first = copy.decoded()
        copy.base_iva = 0x5000
        assert copy.iva(1) == 0x5004
        assert copy.decoded().ivas[:2] == [0x5000, 0x5004]
        assert copy.decoded().ops is first.ops

    def test_relocate_with_duplicate_label_raises(self):
        program = sample_program()
        program.instructions.append(Label("done"))
        with pytest.raises(ConfigError, match="duplicate label"):
            program.relocate(0x2000)

    def test_unhashable_instruction_skips_sharing(self):
        class Unhashable(Halt):
            __hash__ = None

        clear_decode_cache()
        program = Program([MovImm("a", 1), Unhashable()])
        moved = program.relocate(0x1000)
        assert decode_cache_info()["size"] == 0
        assert moved.decoded().ivas == [0x1000, 0x1004]
        assert moved.decoded().ops is program.decoded().ops
