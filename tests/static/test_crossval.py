"""Cross-validation: the scanner's soundness contract, tested."""

import json

import pytest

from repro.errors import ConfigError
from repro.fuzz.corpus import REGRESSION_ENTRIES
from repro.static.crossval import (
    AGREEMENT_CELLS,
    agreement_matrix,
    build_cases,
    run_case,
    run_crossval,
)


class TestBuildCases:
    def test_corpus_cases_come_first_per_mitigation(self):
        cases = build_cases(mitigations=("none", "ssbd"))
        # One task per program, carrying every mitigation; its ``case``
        # numbers the first of its (program, mitigation) rows.
        assert len(cases) == len(REGRESSION_ENTRIES)
        assert all(case["source"] == "corpus" for case in cases)
        assert all(case["mitigations"] == ["none", "ssbd"] for case in cases)
        assert [case["case"] for case in cases] == list(range(0, 2 * len(cases), 2))

    def test_budget_appends_generated_cases(self):
        cases = build_cases(budget=2, seed=1, mitigations=("none",))
        generated = [case for case in cases if case["source"] == "generated"]
        # 2 derived programs x (fuzz-v1 + oracle-v1)
        assert len(generated) == 4
        assert {case["generator"] for case in generated} == {
            "fuzz-v1", "oracle-v1",
        }

    def test_unknown_mitigation_raises(self):
        with pytest.raises(ConfigError):
            build_cases(mitigations=("prayer",))

    def test_findings_shrunk_reproducers_replay(self, tmp_path):
        from repro.fuzz.findings import Finding, write_findings

        finding = Finding(
            kind="leak", generator="oracle-v1", seed=3, blocks=2,
            cpu_model="ryzen9-5900x", mitigation="none", task=0,
            origin="generated", label="g",
            shrunk={"instructions": ["Halt()"], "count": 1,
                    "original_count": 1},
        )
        path = tmp_path / "f.jsonl"
        write_findings(path, [finding])
        cases = build_cases(findings=[path], mitigations=("none",))
        shrunk = [case for case in cases if case["source"] == "shrunk"]
        assert len(shrunk) == 1
        assert shrunk[0]["instructions"] == ["Halt()"]
        assert shrunk[0]["mitigations"] == ["none"]


class TestRunCase:
    def _case(self, **overrides):
        case = {
            "case": 0, "source": "generated", "generator": "oracle-v1",
            "seed": 1, "blocks": 2, "label": "t", "mitigations": ["none"],
            "instructions": None, "cpu_model": "",
        }
        case.update(overrides)
        return case

    def test_row_lands_in_exactly_one_cell(self):
        [row] = run_case(self._case())
        assert row["cell"] in AGREEMENT_CELLS
        assert row["static_positive"] == (row["static_gadgets"] > 0)
        assert row["dynamic_positive"] == (row["dynamic_kind"] is not None)

    def test_one_row_per_mitigation_numbered_from_case(self):
        rows = run_case(self._case(case=6, mitigations=["none", "ssbd", "fence"]))
        assert [row["case"] for row in rows] == [6, 7, 8]
        assert [row["mitigation"] for row in rows] == ["none", "ssbd", "fence"]
        for row in rows:
            alone = self._case(case=row["case"], mitigations=[row["mitigation"]])
            assert run_case(alone) == [row]

    def test_explicit_instructions_override_generation(self):
        [row] = run_case(self._case(instructions=["Halt()"]))
        assert row["cell"] == "both-negative"

    def test_matrix_counts_every_cell(self):
        rows = [{"cell": "both-negative"}, {"cell": "both-negative"},
                {"cell": "static-only"}]
        matrix = agreement_matrix(rows)
        assert matrix == {
            "both-positive": 0, "static-only": 1,
            "dynamic-only": 0, "both-negative": 2,
        }
        assert list(matrix) == list(AGREEMENT_CELLS)


class TestSoundness:
    def test_corpus_and_generated_cases_are_sound(self):
        report = run_crossval(budget=2, seed=0)
        assert report.sound, (
            "soundness violations: "
            + json.dumps(report.violations, indent=2)
        )
        assert report.matrix()["dynamic-only"] == 0
        assert not report.failures
        # The regression corpus exists because those programs leak: the
        # scanner must flag every one of them under "none".
        unmitigated = [
            row for row in report.rows
            if row["source"] == "corpus" and row["mitigation"] == "none"
        ]
        assert unmitigated and all(
            row["static_positive"] for row in unmitigated
        )

    def test_report_is_identical_across_job_counts(self):
        serial = run_crossval(budget=1, seed=3, jobs=1)
        parallel = run_crossval(budget=1, seed=3, jobs=2)
        assert serial.to_dict() == parallel.to_dict()
        assert (
            json.dumps(serial.to_dict(), sort_keys=True)
            == json.dumps(parallel.to_dict(), sort_keys=True)
        )

    def test_described_sources_is_stable(self):
        report = run_crossval(budget=1, seed=3, mitigations=("none",))
        assert "corpus" in report.described_sources()
        assert "generated" in report.described_sources()

    def test_rows_count_program_mitigation_pairs_in_order(self, monkeypatch):
        import repro.static.crossval as crossval

        built = []
        build = crossval.build_program
        monkeypatch.setattr(crossval, "build_program",
                            lambda *case: built.append(case) or build(*case))
        report = run_crossval(mitigations=("none", "fence"))
        assert len(built) == len(REGRESSION_ENTRIES)
        assert [row["case"] for row in report.rows] == list(range(2 * len(built)))
        assert [row["mitigation"] for row in report.rows] == (
            ["none", "fence"] * len(built)
        )

    def test_to_dict_carries_schema_and_matrix(self):
        report = run_crossval(mitigations=("ssbd",))
        data = report.to_dict()
        assert data["schema"] == 1
        assert data["cases"] == len(report.rows)
        assert data["sound"] is report.sound
        assert set(data["matrix"]) == set(AGREEMENT_CELLS)
