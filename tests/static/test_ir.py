"""Lifting the micro-ISA into the scanner's dataflow IR."""

from repro.cpu.isa import (
    Alu,
    AluImm,
    Clflush,
    Halt,
    Imul,
    ImulImm,
    Jz,
    Label,
    Load,
    Mfence,
    Mov,
    MovImm,
    Pad,
    Program,
    Rdpru,
    Store,
)
from repro.static.ir import KINDS, lift


def _program():
    return [
        MovImm("a", 7),                    # 0
        Mov("b", "a"),                     # 1
        Alu("c", "a", "b", "xor"),         # 2
        AluImm("d", "c", 3, "add"),        # 3
        Imul("e", "a", "b"),               # 4
        ImulImm("f", "e", 2),              # 5
        Load("g", base="buf", offset=8, width=4),    # 6
        Store(base="buf", src="g", offset=16),       # 7
        Clflush(base="buf", offset=64),              # 8
        Mfence(),                          # 9
        Rdpru("t"),                        # 10
        Jz("c", "end"),                    # 11
        Pad(),                             # 12
        Label("end"),                      # 13
        Halt(),                            # 14
    ]


class TestLift:
    def test_every_node_kind_is_known(self):
        ir = lift(_program())
        assert all(node.kind in KINDS for node in ir)
        assert [node.kind for node in ir] == [
            "alu", "alu", "alu", "alu", "alu", "alu", "load", "store",
            "flush", "fence", "timer", "branch", "nop", "nop", "halt",
        ]

    def test_defs_and_uses(self):
        ir = lift(_program())
        assert ir[2].defs == ("c",) and ir[2].uses == ("a", "b")
        assert ir[6].defs == ("g",) and ir[6].uses == ("buf",)
        assert ir[7].defs == () and ir[7].uses == ("buf", "g")
        assert ir[10].defs == ("t",) and ir[10].uses == ()
        assert ir[11].uses == ("c",)

    def test_memory_facts(self):
        ir = lift(_program())
        assert (ir[6].base, ir[6].offset, ir[6].width) == ("buf", 8, 4)
        assert (ir[7].base, ir[7].offset, ir[7].width) == ("buf", 16, 8)
        assert (ir[8].base, ir[8].offset) == ("buf", 64)

    def test_operators_and_immediates(self):
        ir = lift(_program())
        assert (ir[0].imm, ir[0].alu_op) == (7, "")
        assert (ir[2].imm, ir[2].alu_op) == (None, "xor")
        assert (ir[3].imm, ir[3].alu_op) == (3, "add")
        assert (ir[5].imm, ir[5].alu_op) == (2, "")
        assert (ir[6].imm, ir[6].alu_op) == (None, "")

    def test_branch_target_resolved_through_label(self):
        ir = lift(_program())
        assert ir[11].target == 13

    def test_unknown_label_keeps_target_none(self):
        ir = lift([Jz("c", "nowhere"), Halt()])
        assert ir[0].target is None

    def test_lookup_tables(self):
        ir = lift(_program())
        assert ir.loads == (6,)
        assert ir.stores == (7,)
        assert ir.branches == (11,)
        assert ir.fences == (9,)

    def test_accepts_every_program_form(self):
        instructions = _program()
        program = Program(instructions, name="t")
        from_list = lift(instructions)
        from_program = lift(program)
        assert [n.source for n in from_list] == [n.source for n in from_program]

    def test_source_is_the_instruction_repr(self):
        ir = lift(_program())
        assert ir[0].source == repr(MovImm("a", 7))

    def test_reprs_sorts_span_indices(self):
        ir = lift(_program())
        assert ir.reprs([7, 2]) == (ir[2].source, ir[7].source)

    def test_len_iter_getitem(self):
        ir = lift(_program())
        assert len(ir) == 15
        assert sum(1 for _ in ir) == 15
        assert ir[14].kind == "halt"

    def test_nodes_are_built_on_first_access_and_kept(self):
        ir = lift(_program())
        assert ir[-1] is ir[14] is ir[14]
        assert ir[6] == ir.nodes[6]

    def test_a_repeated_label_resolves_to_its_last_position(self):
        ir = lift([Jz("c", "x"), Label("x"), Pad(), Label("x"), Halt()])
        assert ir.labels == {"x": 3}
        assert ir[0].target == 3
