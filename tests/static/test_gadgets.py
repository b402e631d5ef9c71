"""Gadget classification: each oracle channel maps to a static kind."""

from repro.cpu.isa import (
    Clflush,
    Halt,
    Jz,
    Label,
    Load,
    Mfence,
    MovImm,
    Program,
    Store,
)
from repro.fuzz.gen import build_program
from repro.static.gadgets import GADGET_KINDS, scan_program


def _kinds(report):
    return sorted({gadget.kind for gadget in report.gadgets})


class TestKinds:
    def test_clean_program(self):
        report = scan_program([MovImm("r0", 1), Halt()])
        assert report.clean
        assert report.gadgets == [] and report.kinds() == {}

    def test_architectural_secret_value(self):
        report = scan_program([Load("r0", base="buf"), Halt()])
        assert _kinds(report) == ["architectural-secret-value"]
        (gadget,) = report.gadgets
        assert gadget.channel == "arch"
        assert gadget.sources == (0,)
        assert gadget.node == 1                      # anchored at the halt
        assert "r0" in gadget.detail

    def test_untracked_register_is_ignored(self):
        report = scan_program([Load("scratch", base="buf"), Halt()])
        assert report.clean
        flagged = scan_program(
            [Load("scratch", base="buf"), Halt()], tracked=("scratch",)
        )
        assert not flagged.clean

    def test_transmit_load(self):
        report = scan_program([
            Load("s", base="buf"),          # 0: secret
            Load("t", base="s"),            # 1: secret-named address
            Halt(),
        ])
        assert "transmit-load" in _kinds(report)
        gadget = next(g for g in report.gadgets if g.kind == "transmit-load")
        assert gadget.node == 1 and gadget.channel == "arch"
        assert 0 in gadget.sources

    def test_transmit_store_and_flush(self):
        base = [Load("s", base="buf")]
        store = scan_program(base + [Store(base="s", src="s"), Halt()])
        flush = scan_program(base + [Clflush(base="s"), Halt()])
        assert "transmit-store" in _kinds(store)
        assert "transmit-flush" in _kinds(flush)

    def test_transmit_branch(self):
        report = scan_program([
            Load("s", base="buf"),
            Jz("s", "end"),
            Label("end"),
            Halt(),
        ])
        assert "transmit-branch" in _kinds(report)

    def test_stale_value_probe_fires_on_aliasing_bypass(self):
        report = scan_program([
            MovImm("v", 7),
            Store(base="buf", src="v", offset=0),
            Load("r0", base="buf", offset=0),
            Halt(),
        ])
        probes = [g for g in report.gadgets if g.kind == "stale-value-probe"]
        assert [g.node for g in probes] == [2]
        assert probes[0].channel == "spec"

    def test_disjoint_known_ranges_never_probe(self):
        report = scan_program([
            MovImm("v", 7),
            Store(base="buf", src="v", offset=0),
            Load("r0", base="buf", offset=256),
            Halt(),
        ])
        assert all(g.kind != "stale-value-probe" for g in report.gadgets)

    def test_fence_between_kills_the_probe(self):
        report = scan_program([
            MovImm("v", 7),
            Store(base="buf", src="v"),
            Mfence(),
            Load("r0", base="buf"),
            Halt(),
        ])
        assert report.clean


class TestMitigations:
    PROGRAM = [
        MovImm("v", 7),
        Store(base="buf", src="v"),
        Load("r0", base="buf"),
        Halt(),
    ]

    def test_ssbd_and_fence_scans_are_clean(self):
        assert not scan_program(self.PROGRAM, mitigation="none").clean
        assert scan_program(self.PROGRAM, mitigation="ssbd").clean
        assert scan_program(self.PROGRAM, mitigation="fence").clean

    def test_purely_bypass_fed_gadgets_name_their_killers(self):
        report = scan_program(self.PROGRAM, mitigation="none")
        for gadget in report.gadgets:
            assert gadget.channel == "spec"
            assert gadget.killed_by == ("ssbd", "fence")

    def test_architectural_gadgets_have_no_killer(self):
        report = scan_program([Load("r0", base="buf"), Halt()])
        (gadget,) = report.gadgets
        assert gadget.killed_by == ()


class TestReportShape:
    def test_gadgets_sorted_and_kinds_counted(self):
        report = scan_program(build_program("fuzz-v1", 5, 8))
        order = [(g.node, GADGET_KINDS.index(g.kind)) for g in report.gadgets]
        assert order == sorted(order)
        assert sum(report.kinds().values()) == len(report.gadgets)

    def test_to_dict_round_trips_through_json(self):
        import json

        report = scan_program(build_program("fuzz-v1", 5, 8))
        data = json.loads(json.dumps(report.to_dict()))
        assert data["instructions"] == report.instructions
        assert data["clean"] is report.clean
        assert len(data["gadgets"]) == len(report.gadgets)

    def test_scan_is_deterministic(self):
        program = build_program("oracle-v1", 9, 12)
        assert (
            scan_program(program).to_dict()
            == scan_program(program).to_dict()
        )

    def test_reports_match_the_recorded_digest(self):
        """Every report field over generated programs, pinned as one digest.

        The scanner's speed work must not move its output.  Change the
        constant only with a deliberate change to what the scanner
        reports, and say so in the change's notes.
        """
        import hashlib
        import json

        from repro.fuzz.gen import GENERATORS

        digest = hashlib.sha256()
        for generator in sorted(GENERATORS):
            for seed in range(12):
                program = build_program(generator, seed, 8)
                for mitigation in ("none", "ssbd", "fence"):
                    report = scan_program(program, mitigation=mitigation)
                    digest.update(
                        json.dumps(report.to_dict(), sort_keys=True).encode()
                    )
        assert digest.hexdigest() == (
            "4b1dbc12aaab8cc46e523376fbf90cd8f0416bf4099ce2e12c651c0ad82e5f00"
        )

    def test_name_defaults(self):
        assert scan_program([Halt()]).name == "program"
        assert scan_program(Program([Halt()], name="x")).name == "x"
        assert scan_program([Halt()], name="y").name == "y"

    def test_preconditions_cite_the_predictors(self):
        report = scan_program([
            MovImm("v", 7),
            Store(base="buf", src="v"),
            Load("r0", base="buf"),
            Halt(),
        ])
        (probe,) = [g for g in report.gadgets if g.kind == "stale-value-probe"]
        text = " ".join(probe.preconditions)
        assert "ssbp-predicts-nonalias" in text and "psfp-armed" in text
