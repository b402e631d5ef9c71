"""The repro-scan CLI: determinism, exit codes, artifact discipline."""

import json

import pytest

from repro.errors import ConfigError
from repro.fuzz.corpus import REGRESSION_ENTRIES
from repro.fuzz.gen import parse_case
from repro.static import cli, crossval
from repro.static.cli import main


class TestParseTarget:
    def test_valid_target(self):
        assert parse_case("case:fuzz-v1:5:8") == ("fuzz-v1", 5, 8)

    @pytest.mark.parametrize("target", [
        "fuzz-v1:5:8",                 # missing the case: prefix
        "case:fuzz-v1:5",              # missing blocks
        "case:unknown-gen:5:8",        # unknown generator
        "case:fuzz-v1:five:8",         # non-integer seed
    ])
    def test_bad_targets_raise(self, target):
        with pytest.raises(ConfigError):
            parse_case(target)


class TestScan:
    def test_jsonl_byte_identical_across_job_counts(self, tmp_path, capsys):
        out_a = tmp_path / "a.jsonl"
        out_b = tmp_path / "b.jsonl"
        code_a = main([
            "scan", "--no-corpus", "--budget", "2", "--seed", "1",
            "--jobs", "1", "--out", str(out_a),
        ])
        code_b = main([
            "scan", "--no-corpus", "--budget", "2", "--seed", "1",
            "--jobs", "4", "--out", str(out_b),
        ])
        assert code_a == code_b == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assert "scanned" in capsys.readouterr().out

    def test_default_task_set_is_the_corpus_replay(self, tmp_path, capsys):
        out = tmp_path / "corpus.jsonl"
        assert main(["scan", "--no-corpus", "--out", str(out)]) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        # built-in regressions x all three mitigations
        assert len(records) == 3 * len(REGRESSION_ENTRIES)
        labels = {record["label"] for record in records}
        assert labels == {entry.label for entry in REGRESSION_ENTRIES}

    def test_explicit_targets_and_single_mitigation(self, tmp_path):
        out = tmp_path / "t.jsonl"
        code = main([
            "scan", "case:fuzz-v1:5:8", "--mitigation", "none",
            "--out", str(out),
        ])
        assert code == 0
        (record,) = [json.loads(line) for line in out.read_text().splitlines()]
        assert record["schema"] == 1
        assert record["mitigation"] == "none"
        assert record["name"] == "fuzz-v1:5:8"

    def test_empty_out_disables_the_artifact(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["scan", "case:fuzz-v1:5:8", "--out", ""]) == 0
        assert list(tmp_path.iterdir()) == []

    def test_each_program_is_built_once(self, tmp_path, monkeypatch):
        import repro.static.cli as cli

        built = []
        build = cli.build_program
        monkeypatch.setattr(cli, "build_program",
                            lambda *case: built.append(case) or build(*case))
        out = tmp_path / "s.jsonl"
        assert main(["scan", "--no-corpus", "--budget", "2", "--seed", "1",
                     "--out", str(out)]) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(built) == len(REGRESSION_ENTRIES) + 2 * 2
        # One record per (program, mitigation), the mitigations in order.
        assert [record["mitigation"] for record in records] == (
            ["none", "ssbd", "fence"] * len(built)
        )

    def test_bad_target_is_usage_error(self):
        assert main(["scan", "case:nope:1:2"]) == 2

    def test_bad_mitigation_is_usage_error(self):
        assert main(["scan", "case:fuzz-v1:5:8",
                     "--mitigation", "prayer"]) == 2


class TestAdvise:
    def test_advise_prints_plan_and_exits_clean(self, capsys):
        assert main(["advise", "case:fuzz-v1:5:8"]) == 0
        out = capsys.readouterr().out
        assert "fence plan" in out
        assert "eliminated" in out

    def test_verbose_prints_the_before_scan(self, capsys):
        assert main(["advise", "case:fuzz-v1:5:8", "--verbose"]) == 0
        assert "scan of" in capsys.readouterr().out

    def test_bad_target_is_usage_error(self):
        assert main(["advise", "not-a-target"]) == 2


class TestCrossval:
    def test_sound_run_exits_zero_and_writes_report(self, tmp_path, capsys):
        out = tmp_path / "agreement.json"
        code = main([
            "crossval", "--no-corpus", "--budget", "1", "--seed", "3",
            "--mitigation", "none", "--out", str(out),
        ])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["sound"] is True
        assert data["matrix"]["dynamic-only"] == 0
        assert "SOUND" in capsys.readouterr().out

    def test_report_identical_across_job_counts(self, tmp_path):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        args = ["crossval", "--no-corpus", "--budget", "1", "--seed", "3",
                "--mitigation", "none,ssbd"]
        assert main(args + ["--jobs", "1", "--out", str(out_a)]) == 0
        assert main(args + ["--jobs", "4", "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()


@pytest.mark.parametrize("module,worker,argv", [
    (cli, "_scan_one", ["scan"]),
    (crossval, "run_case", ["crossval", "--mitigation", "none"]),
], ids=["scan", "crossval"])
def test_interrupt_exits_3_with_no_output_and_no_verdict(
    module, worker, argv, tmp_path, monkeypatch, capsys
):
    """Ctrl-C during the third task of an inline (``--jobs 1``) run."""
    real, calls = getattr(module, worker), []

    def interrupted(task):
        calls.append(task)
        if len(calls) == 3:
            raise KeyboardInterrupt
        return real(task)

    monkeypatch.setattr(module, worker, interrupted)
    out = tmp_path / "out"
    assert main([*argv, "--no-corpus", "--jobs", "1", "--out", str(out)]) == 3
    assert not out.exists()
    captured = capsys.readouterr()
    assert "SOUND" not in captured.out
    assert "no checkpoint was written" in captured.err
