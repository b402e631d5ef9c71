"""Taint-propagation semantics: coverage, sources, merges, folding."""

import dataclasses
import inspect

from repro.cpu import isa
from repro.cpu.isa import (
    Alu,
    AluImm,
    Halt,
    ImulImm,
    Jz,
    Label,
    Load,
    Mfence,
    Mov,
    MovImm,
    Store,
)
from repro.static.ir import OPS, lift
from repro.static.taint import analyze_taint
from repro.static.windows import branch_windows, bypass_edges


def _analyze(instructions, mitigation="none"):
    ir = lift(instructions)
    return analyze_taint(ir, bypass_edges(ir, mitigation), branch_windows(ir))


class TestSources:
    def test_uncovered_buffer_load_is_an_architectural_source(self):
        taint = _analyze([Load("r0", base="buf"), Halt()])
        assert taint.sources == {0: "uncovered-load"}
        assert taint.regs["r0"].arch == frozenset({0})
        assert taint.regs["r0"].spec == frozenset({0})

    def test_foreign_pointer_load_is_an_architectural_source(self):
        taint = _analyze([Load("r0", base="mystery"), Halt()])
        assert taint.sources == {0: "foreign-load"}
        assert taint.regs["r0"].arch == frozenset({0})

    def test_covered_load_is_clean(self):
        taint = _analyze([
            MovImm("v", 7),
            Store(base="buf", src="v"),
            Mfence(),                       # sever the bypass edge
            Load("r0", base="buf"),
            Halt(),
        ])
        assert taint.sources == {}
        assert not taint.regs["r0"].tainted

    def test_bypassed_covered_load_gains_only_speculative_taint(self):
        taint = _analyze([
            MovImm("v", 7),
            Store(base="buf", src="v"),
            Load("r0", base="buf"),          # bypass edge 1 -> 2
            Halt(),
        ])
        assert taint.sources == {2: "stale-bypass"}
        assert taint.regs["r0"].arch == frozenset()
        assert taint.regs["r0"].spec == frozenset({2})

    def test_partial_coverage_does_not_count(self):
        taint = _analyze([
            MovImm("v", 7),
            Store(base="buf", src="v", width=4),   # covers bytes 0..4
            Mfence(),
            Load("r0", base="buf", width=8),       # reads bytes 0..8
            Halt(),
        ])
        assert taint.sources == {3: "uncovered-load"}

    def test_ssbd_removes_the_stale_bypass_source(self):
        program = [
            MovImm("v", 7),
            Store(base="buf", src="v"),
            Load("r0", base="buf"),
            Halt(),
        ]
        assert _analyze(program, "ssbd").sources == {}
        assert _analyze(program, "none").sources == {2: "stale-bypass"}


class TestPropagation:
    def test_alu_merges_operand_taint(self):
        taint = _analyze([
            Load("s", base="buf"),
            MovImm("k", 3),
            Alu("r0", "s", "k", "add"),
            Halt(),
        ])
        assert taint.regs["r0"].arch == frozenset({0})

    def test_xor_and_mask_do_not_launder_taint(self):
        taint = _analyze([
            Load("s", base="buf"),
            AluImm("r0", "s", 0, "and"),
            Halt(),
        ])
        assert taint.regs["r0"].arch == frozenset({0})

    def test_tainted_address_taints_the_loaded_value(self):
        taint = _analyze([
            Load("s", base="buf"),          # 0: secret
            Load("r0", base="s"),           # 1: address derived from secret
            Halt(),
        ])
        arch, _spec = taint.address[1]
        assert arch == frozenset({0})
        assert frozenset({0}) <= taint.regs["r0"].arch

    def test_speculatively_tainted_pointer_taints_the_value_speculatively(self):
        taint = _analyze([
            MovImm("v", 7),
            Store(base="buf", src="v"),     # 1: covers bytes 0..8
            Load("p", base="buf"),          # 2: covered, but bypassable
            Load("r0", base="p"),           # 3: through a transient-only pointer
            Halt(),
        ])
        assert taint.address[3] == (frozenset(), frozenset({2}))
        assert taint.regs["r0"].arch == frozenset({3})
        assert taint.regs["r0"].spec == frozenset({2, 3})

    def test_branch_condition_taint_is_recorded(self):
        taint = _analyze([
            Load("s", base="buf"),
            Jz("s", "end"),
            Label("end"),
            Halt(),
        ])
        arch, spec = taint.condition[1]
        assert arch == spec == frozenset({0})

    def test_timer_result_is_untainted(self):
        from repro.cpu.isa import Rdpru

        taint = _analyze([Load("t", base="buf"), Rdpru("t"), Halt()])
        assert not taint.regs["t"].tainted


class TestBranchWindowMerge:
    def test_def_inside_a_window_merges_with_the_prior_value(self):
        taint = _analyze([
            MovImm("r0", 0),                # 0: clean prior value
            Load("s", base="buf"),          # 1: secret
            MovImm("c", 1),                 # 2
            Jz("c", "skip"),                # 3
            Mov("r0", "s"),                 # 4: maybe-executed def
            Label("skip"),                  # 5
            Halt(),                         # 6
        ])
        # Architecturally the Mov may or may not happen — both the clean
        # const and the secret flow into r0's final taint.
        assert taint.regs["r0"].arch == frozenset({1})

    def test_self_copy_of_an_unset_register_still_defines_it(self):
        taint = _analyze([
            ImulImm("x", "x", 1),           # 0: defines x (unknown value)
            MovImm("c", 1),                 # 1
            Jz("c", "skip"),                # 2
            MovImm("x", 64),                # 3: maybe-executed def merges
            Label("skip"),                  # 4
            Halt(),                         # 5
        ])
        assert taint.regs["x"].region == "unknown"

    def test_def_outside_any_window_replaces(self):
        taint = _analyze([
            Load("r0", base="buf"),
            MovImm("r0", 0),
            Halt(),
        ])
        assert not taint.regs["r0"].tainted


class TestStoreCoverage:
    def test_covered_load_inherits_stored_data_taint(self):
        taint = _analyze([
            Load("s", base="buf", offset=128),     # 0: secret
            Store(base="buf", src="s", offset=0),  # 1: plants it at 0
            Mfence(),
            Load("r0", base="buf", offset=0),      # 3: covered but tainted
            Halt(),
        ])
        assert 3 not in taint.sources
        assert taint.regs["r0"].arch == frozenset({0})

    def test_maybe_executed_store_adds_no_coverage(self):
        taint = _analyze([
            MovImm("v", 7),
            MovImm("c", 1),
            Jz("c", "skip"),                       # 2
            Store(base="buf", src="v"),            # 3: inside the window
            Label("skip"),
            Mfence(),
            Load("r0", base="buf"),                # 6
            Halt(),
        ])
        assert taint.sources.get(6) == "uncovered-load"

    def test_unplaceable_tainted_store_poisons_existing_coverage(self):
        taint = _analyze([
            Load("s", base="buf", offset=64),      # 0: secret
            MovImm("v", 7),
            Store(base="buf", src="v", offset=0),  # 2: clean coverage at 0
            Store(base="p", src="s"),              # 3: unknown target, tainted
            Mfence(),
            Load("r0", base="buf", offset=0),      # 5
            Halt(),
        ])
        assert frozenset({0}) <= taint.regs["r0"].arch


class TestValueFolding:
    def test_buf_plus_const_offsets_are_tracked(self):
        taint = _analyze([
            AluImm("p", "buf", 64, "add"),
            Load("r0", base="p", offset=0),
            Halt(),
        ])
        assert taint.values[1] == ("buf", 64)

    def test_const_arithmetic_folds(self):
        taint = _analyze([
            MovImm("a", 6),
            AluImm("b", "a", 2, "add"),
            MovImm("c", 2),
            Alu("d", "b", "c", "sub"),
            Store(base="buf", src="d", offset=0),
            Halt(),
        ])
        assert taint.regs["d"].region == "const"
        assert taint.regs["d"].offset == 6

    def test_unknown_operands_stay_unknown(self):
        taint = _analyze([
            Alu("d", "x", "y", "add"),
            Load("r0", base="d"),
            Halt(),
        ])
        assert taint.values[1] == ("unknown", 0)


#: ``str`` fields of an instruction that do not name a register.
_NOT_REGISTERS = {"op", "label", "name"}

#: Values for the non-register fields of a probe instruction.
_OPERANDS = {"value": 3, "imm": 3, "offset": 0, "width": 8, "op": "add",
             "label": "end", "name": "here"}


def _isa_classes():
    return [cls for _, cls in inspect.getmembers(isa, inspect.isclass)
            if issubclass(cls, isa.Instruction)]


def _register_fields(cls):
    return sorted(field.name for field in dataclasses.fields(cls)
                  if field.type == "str" and field.name not in _NOT_REGISTERS)


def _probe(cls):
    """An instance whose register fields name distinct registers."""
    kwargs = {}
    for field in dataclasses.fields(cls):
        if field.name in _NOT_REGISTERS or field.type != "str":
            kwargs[field.name] = _OPERANDS[field.name]
        else:
            kwargs[field.name] = f"x_{field.name}"
    return cls(**kwargs)


def _observed_reads_and_writes(instruction):
    """The registers the taint pass reads and writes for one instruction.

    Every register the instruction names is first loaded through its own
    unknown pointer, so it carries a distinct taint source.  A register
    is *read* when its source reaches anything the instruction produces
    (the address, the branch condition, a written register, or buffer
    bytes a later load reads back); it is *written* when its final value
    no longer carries its own source.
    """
    names = [getattr(instruction, field) for field in _register_fields(type(instruction))]
    prefix = [MovImm("c", 0), Store(base="buf", src="c")]   # covers buf[0:8]
    prefix += [Load(name, base=f"p_{name}") for name in names]
    index = len(prefix)
    program = prefix + [instruction, Load("probe", base="buf"), Label("end"), Halt()]
    taint = analyze_taint(lift(program), [], [])
    source = {name: prefix.index(Load(name, base=f"p_{name}")) for name in names}
    written = {name for name in names if source[name] not in taint.regs[name].arch}
    produced = set(taint.address.get(index, (frozenset(),))[0])
    produced |= taint.condition.get(index, (frozenset(),))[0]
    produced |= taint.regs["probe"].arch
    for name in written:
        produced |= taint.regs[name].arch
    read = {name for name in names if source[name] in produced}
    return read, written


class TestRulesMatchTheIR:
    """The taint pass's per-class rules against the IR's register facts."""

    def test_every_isa_class_is_modelled_or_has_no_registers(self):
        for cls in _isa_classes():
            fields = _register_fields(cls)
            if cls in OPS:
                info = OPS[cls]
                assert sorted(info.defs + info.uses) == fields, cls
                assert info.base is None or info.base in info.uses, cls
            else:
                assert fields == [], f"{cls.__name__} names registers but is not in OPS"

    def test_taint_reads_and_writes_exactly_the_lifted_uses_and_defs(self):
        for cls in _isa_classes():
            instruction = _probe(cls)
            node = lift([instruction])[0]
            read, written = _observed_reads_and_writes(instruction)
            assert read == set(node.uses), cls.__name__
            assert written == set(node.defs), cls.__name__
