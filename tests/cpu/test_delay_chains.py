"""Property test: a collapsed delay chain == the same links one by one.

``Pipeline.run`` dispatches a run of identical ``imul r, r, 1`` links in
one step through a closed form (``_ExecState._dispatch_chain``), while
``Pipeline.begin`` + ``step()`` + ``finish`` — the SMT runner's path —
dispatches one instruction per step.  Every observable must agree:
registers and ready cycles (dict order included), cycles, retired
count, rollbacks, fault, PMC counts, predictor state, memory and the
trace event list.

Cases are campaign fuzz programs with extra chains injected: anywhere,
right behind a store (so the chain runs while the store is unresolved),
right behind a branch (inside a mispredicted window) and behind a
faulting load (inside a fault window), on registers the program uses
and on one it never writes.  The multiply latency varies too, since it
scales the closed form.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import LatencyModel, default_model
from repro.cpu.isa import (
    Halt,
    ImulImm,
    Jz,
    Label,
    Load,
    Mov,
    MovImm,
    Program,
    Store,
)
from repro.cpu.machine import Machine
from repro.errors import SegmentationFault, SimulationLimitExceeded
from repro.fuzz.gen import BUF_PAGES, fuzz_program
from repro.fuzz.harness import DEFAULT_FILL, apply_mitigation
from repro.mitigations import MITIGATIONS
from repro.telemetry import recording
from repro.telemetry.metrics import registry
from repro.telemetry.sinks import RingBufferSink

MAX_STEPS = 400_000
CHAIN_REGS = ["r0", "r1", "r2", "r3", "sd", "la", "cz"]  # cz: never written
ANCHORS = {"anywhere": None, "store": Store, "branch": Jz, "window": None}


def inject(base, chains, fault):
    """``base`` with extra delay chains.

    Each ``(anchor, where, length, reg)`` chain goes after an instruction
    of the anchor's kind (``where`` picks which); a ``window`` chain is
    the wrong path of a branch whose condition a 10-link chain delays,
    so it mispredicts and the window outlasts short chains.  ``fault``,
    when set, is ``(length, reg, handler)``: a store that becomes
    committable while the chain in a faulting load's window runs, with
    or without a handler label after the chain.
    """
    out = list(base[:-1])  # the trailing Halt goes back on last
    inserts = []
    for n, (anchor, where, length, reg) in enumerate(chains):
        kind = ANCHORS[anchor]
        spots = [i + 1 for i, inst in enumerate(out) if kind and type(inst) is kind]
        spots = spots or list(range(1, len(out) + 1))
        body = [ImulImm(reg, reg, 1)] * length
        if anchor == "window":
            label = f"chain{n}"
            delay = [ImulImm("bz", "bz", 1)] * 10
            body = [MovImm("bz", 0), *delay, Jz("bz", label), *body, Label(label)]
        inserts.append((spots[where % len(spots)], body))
    if fault:
        length, reg, handler = fault
        body = [Mov("fs", "buf"), ImulImm("fs", "fs", 1), Store(base="fs", src="fs")]
        body += [MovImm("fp", 0), Load("fv", base="fp")] + [ImulImm(reg, reg, 1)] * length
        inserts.append((len(out), body + [Label("fault_handler")] * handler))
    for spot, body in sorted(inserts, key=lambda item: item[0], reverse=True):
        out[spot:spot] = body
    return out + [Halt()]


def observe(instructions, seed, mitigation, imul, collapsed, max_steps=MAX_STEPS):
    """Everything one run leaves behind, on a fresh traced machine."""
    model = dataclasses.replace(
        default_model(), latency=LatencyModel(imul=imul)
    )
    states = []
    sink = RingBufferSink(capacity=1 << 20)
    with recording(sink):
        machine = Machine(model=model, seed=seed)
        if mitigation == "ssbd":
            machine.core.set_ssbd(True)
        process = machine.kernel.create_process("chains")
        buf = machine.kernel.map_anonymous(process, pages=BUF_PAGES)
        machine.kernel.write(process, buf, DEFAULT_FILL)
        program = machine.load_program(
            process, Program(apply_mitigation(instructions, mitigation), name="c")
        )
        pipe = machine.pipeline(0)
        begin = pipe.begin
        pipe.begin = lambda *args: states.append(begin(*args)) or states[-1]
        outcome = "ok"
        try:
            if collapsed:
                result = machine.run(process, program, {"buf": buf}, max_steps=max_steps)
            else:
                machine.kernel.schedule(process, 0)
                state = pipe.begin(process, program, {"buf": buf})
                steps = 0
                while not state.halted:  # _ExecState.execute, one link a step
                    if steps >= max_steps:
                        raise SimulationLimitExceeded("stepped past the limit")
                    steps += 1
                    state.step()
                result = pipe.finish(state)
        except SegmentationFault as fault:
            outcome, result = f"fault:{fault}", states[0].result
        except SimulationLimitExceeded:
            outcome, result = "limit", states[0].result
    (state,) = states
    unit = pipe.thread.unit
    return {
        "outcome": outcome,
        "regs": list(state.regs.items()),
        "ready": list(state.ready.items()),
        "index": state.index,
        "dispatch": state.dispatch,
        "cycles": result.cycles,
        "retired": state.retired,
        "rollbacks": result.rollbacks,
        "fault": None if result.fault is None else str(result.fault),
        "events": [event.to_dict() for event in result.events],
        "pmc": dict(pipe.thread.pmc.counts),
        "psfp": [dataclasses.astuple(e) for e in unit.psfp.entries()],
        "ssbp": [dataclasses.astuple(e) for e in unit.ssbp.entries()],
        "exec_types": dict(unit.exec_type_counts),
        "memory": machine.kernel.read(process, buf, 4096),
        "trace": sink.events(),
        "chain_retired": state.chain_retired,
    }


def assert_same(instructions, seed, mitigation, imul=3):
    fast = observe(instructions, seed, mitigation, imul, collapsed=True)
    slow = observe(instructions, seed, mitigation, imul, collapsed=False)
    assert slow.pop("chain_retired") == 0
    collapsed_links = fast.pop("chain_retired")
    assert fast == slow
    return collapsed_links


chain_spec = st.tuples(
    st.sampled_from(sorted(ANCHORS)),
    st.integers(0, 1_000),
    st.integers(2, 60),
    st.sampled_from(CHAIN_REGS),
)


class TestCollapsedChains:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 100_000),
        blocks=st.integers(1, 10),
        chains=st.lists(chain_spec, max_size=4),
        fault=st.none()
        | st.tuples(st.integers(2, 60), st.sampled_from(CHAIN_REGS), st.booleans()),
        mitigation=st.sampled_from(MITIGATIONS),
        imul=st.integers(1, 4),
    )
    def test_collapsed_run_matches_stepping(
        self, seed, blocks, chains, fault, mitigation, imul
    ):
        base = fuzz_program(random.Random(seed), blocks)
        assert_same(inject(base, chains, fault), seed, mitigation, imul)

    @pytest.mark.parametrize("mitigation", MITIGATIONS)
    def test_fixed_fuzz_programs_collapse(self, mitigation):
        """Fixed seeds, so the collapse is known to fire under every
        mitigation (the property above would be vacuous otherwise)."""
        collapsed = 0
        for seed in range(8):
            base = fuzz_program(random.Random(seed), 12)
            program = inject(
                base,
                [("store", seed, 20, "sd"), ("branch", seed, 13, "r0"),
                 ("window", seed, 40, "r1")],
                (40, "cz", seed % 4 == 1) if seed % 2 else None,
            )
            collapsed += assert_same(program, seed, mitigation)
        assert collapsed > 100


def stld_probe():
    """The Fig 8 shape: a 20-link delayed store, a load, a 13-link tail."""
    return (
        [MovImm("v", 7), Mov("sd", "buf")]
        + [ImulImm("sd", "sd", 1)] * 20
        + [Store(base="sd", src="v"), Load("r0", base="buf")]
        + [ImulImm("r0", "r0", 1)] * 13
        + [Halt()]
    )


def commit_mid_chain():
    """A store that becomes committable while a 20-link chain runs."""
    return (
        [MovImm("v", 7), Mov("sd", "buf"), ImulImm("sd", "sd", 1)]
        + [Store(base="sd", src="v")]
        + [ImulImm("r1", "r1", 1)] * 20
        + [Load("r0", base="buf"), Halt()]
    )


class TestStepLimit:
    @pytest.mark.parametrize("mitigation", MITIGATIONS)
    @pytest.mark.parametrize("build", [stld_probe, commit_mid_chain])
    def test_limit_fires_at_the_same_instruction(self, build, mitigation):
        """Every limit from 1 step to past the halt: the collapsed run
        stops where stepping stops, with the same state."""
        program = build()
        outcomes = []
        for limit in range(1, 60):
            fast = observe(program, 1, mitigation, 3, True, max_steps=limit)
            slow = observe(program, 1, mitigation, 3, False, max_steps=limit)
            fast.pop("chain_retired")
            slow.pop("chain_retired")
            assert fast == slow, limit
            outcomes.append(fast["outcome"])
        assert outcomes[0] == "limit" and outcomes[-1] == "ok"

    def test_collapse_fires_on_the_probe(self):
        assert observe(stld_probe(), 1, "none", 3, True)["chain_retired"] > 20

    def test_chain_retired_counter(self):
        counter = registry().counter("pipeline.chain_retired")
        before = counter.value
        machine = Machine(seed=1)
        process = machine.kernel.create_process("p")
        buf = machine.kernel.map_anonymous(process, pages=BUF_PAGES)
        program = machine.load_program(process, Program(stld_probe(), name="p"))
        result = machine.run(process, program, {"buf": buf})
        assert 0 < counter.value - before <= result.retired


def test_decoded_run_lengths():
    program = Program(
        [ImulImm("a", "a", 1)] * 3
        + [ImulImm("b", "b", 1)] * 2
        + [ImulImm("a", "a", 3), ImulImm("a", "b", 1), ImulImm("c", "c", 1)]
        + [Label("x"), ImulImm("c", "c", 1), Halt()]
    )
    assert program.decoded().chain == (3, 2, 1, 2, 1, 0, 0, 1, 0, 1, 0)
    assert program.relocate(0x4000).decoded().chain is program.decoded().chain
