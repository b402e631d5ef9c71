"""Speculative-window enumeration: bypass edges and branch spans."""

from repro.cpu.isa import Halt, Jz, Label, Load, Mfence, MovImm, Store
from repro.static.ir import lift
from repro.static.windows import (
    BranchWindow,
    branch_windows,
    bypass_edges,
    bypass_preconditions,
    psf_preconditions,
    window_nodes,
)


def _store_load():
    return lift([
        MovImm("v", 7),                    # 0
        Store(base="buf", src="v"),        # 1
        Load("r0", base="buf"),            # 2
        Halt(),                            # 3
    ])


class TestBypassEdges:
    def test_every_older_unfenced_store_pairs_with_the_load(self):
        edges = bypass_edges(_store_load())
        assert [(e.store, e.load) for e in edges] == [(1, 2)]

    def test_edges_carry_both_predictor_kinds(self):
        (edge,) = bypass_edges(_store_load())
        assert edge.kinds == ("stl-bypass", "psf-forward")
        assert edge.preconditions == bypass_preconditions() + psf_preconditions()

    def test_fence_between_severs_the_edge(self):
        ir = lift([
            MovImm("v", 7),
            Store(base="buf", src="v"),
            Mfence(),
            Load("r0", base="buf"),
            Halt(),
        ])
        assert bypass_edges(ir) == []

    def test_fence_before_the_store_does_not(self):
        ir = lift([
            Mfence(),
            MovImm("v", 7),
            Store(base="buf", src="v"),
            Load("r0", base="buf"),
            Halt(),
        ])
        assert [(e.store, e.load) for e in bypass_edges(ir)] == [(2, 3)]

    def test_younger_stores_never_pair(self):
        ir = lift([
            Load("r0", base="buf"),
            MovImm("v", 7),
            Store(base="buf", src="v"),
            Halt(),
        ])
        assert bypass_edges(ir) == []

    def test_multiple_stores_all_pair(self):
        ir = lift([
            MovImm("v", 7),
            Store(base="buf", src="v", offset=0),
            Store(base="buf", src="v", offset=8),
            Load("r0", base="buf"),
            Halt(),
        ])
        assert [(e.store, e.load) for e in bypass_edges(ir)] == [(1, 3), (2, 3)]

    def test_ssbd_and_fence_mitigations_kill_every_edge(self):
        ir = _store_load()
        assert bypass_edges(ir, "ssbd") == []
        assert bypass_edges(ir, "fence") == []
        assert bypass_edges(ir, "none") != []

    def test_preconditions_cite_table_i_states(self):
        text = " ".join(bypass_preconditions() + psf_preconditions())
        assert "ssbp-predicts-nonalias" in text
        assert "psfp-armed" in text


class TestBranchWindows:
    def test_forward_branch_spans_to_its_label(self):
        ir = lift([
            MovImm("c", 1),                # 0
            Jz("c", "skip"),               # 1
            MovImm("x", 2),                # 2 (transient span)
            MovImm("y", 3),                # 3 (transient span)
            Label("skip"),                 # 4
            Halt(),                        # 5
        ])
        (window,) = branch_windows(ir)
        assert (window.branch, window.start, window.end) == (1, 2, 4)
        assert window.contains(2) and window.contains(3)
        assert not window.contains(1) and not window.contains(4)

    def test_unknown_label_opens_the_window_to_the_end(self):
        ir = lift([Jz("c", "nowhere"), MovImm("x", 1), Halt()])
        (window,) = branch_windows(ir)
        assert (window.start, window.end) == (1, 3)

    def test_empty_span_yields_no_window(self):
        ir = lift([Jz("c", "here"), Label("here"), Halt()])
        assert branch_windows(ir) == []


class TestWindowNodes:
    def test_union_of_the_spans_clipped_to_the_program(self):
        windows = [
            BranchWindow(branch=0, start=1, end=3),
            BranchWindow(branch=2, start=3, end=9),
        ]
        assert window_nodes(5, windows) == frozenset({1, 2, 3, 4})

    def test_no_windows_no_nodes(self):
        assert window_nodes(4, []) == frozenset()
