"""The ``repro-attack`` CLI: subcommands, exit codes, JSON artifacts."""

import json

import pytest

from repro.attacks.cli import main
from repro.runtime import exitcodes


class TestChannelCommand:
    def test_clean_measurement(self, capsys):
        assert main(["channel", "--channel", "cache", "--width", "4"]) == 0
        out = capsys.readouterr().out
        assert "raw symbol error rate 0.0000" in out
        assert "b/s goodput" in out

    def test_json_output(self, capsys):
        assert main(["channel", "--channel", "cache", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["channel"] == "cache"
        assert data["corrected_byte_errors"] == 0

    def test_out_file_round_trips(self, tmp_path, capsys):
        out = tmp_path / "chan.json"
        assert main(["channel", "--channel", "cache", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["framing_failed"] is False

    def test_unknown_channel_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["channel", "--channel", "pigeon"])
        assert exc.value.code == exitcodes.EXIT_USAGE


class TestLeakCommand:
    @pytest.fixture(scope="class")
    def leak_file(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("leak") / "leak.json"
        capsys_code = main(["leak", "--mitigation", "all", "--out", str(out)])
        assert capsys_code == exitcodes.EXIT_OK
        return out

    def test_all_mitigations_reported(self, leak_file):
        data = json.loads(leak_file.read_text())
        assert [entry["mitigation"] for entry in data["reports"]] == [
            "none", "ssbd", "fence",
        ]

    def test_unmitigated_run_fully_recovers(self, leak_file):
        data = json.loads(leak_file.read_text())
        by_name = {entry["mitigation"]: entry for entry in data["reports"]}
        assert by_name["none"]["accuracy"] == 1.0
        assert by_name["none"]["recovered_hex"] == by_name["none"]["expected_hex"]

    def test_mitigated_runs_degrade(self, leak_file):
        data = json.loads(leak_file.read_text())
        by_name = {entry["mitigation"]: entry for entry in data["reports"]}
        for name in ("ssbd", "fence"):
            assert by_name[name]["accuracy"] < 1.0
            assert by_name[name]["failure"]

    def test_verify_accepts_the_contract(self, leak_file, capsys):
        assert main(["verify", str(leak_file)]) == exitcodes.EXIT_OK
        assert "verify ok" in capsys.readouterr().out

    def test_verify_rejects_missing_degradation(self, leak_file, tmp_path, capsys):
        data = json.loads(leak_file.read_text())
        for entry in data["reports"]:
            entry["accuracy"] = 1.0
            entry["cycles_per_byte"] = 100.0
        doctored = tmp_path / "doctored.json"
        doctored.write_text(json.dumps(data))
        assert main(["verify", str(doctored)]) == exitcodes.EXIT_FAILURES
        assert "NOT DEGRADED" in capsys.readouterr().out

    def test_verify_rejects_partial_baseline(self, leak_file, tmp_path, capsys):
        data = json.loads(leak_file.read_text())
        data["reports"][0]["accuracy"] = 0.5
        doctored = tmp_path / "partial.json"
        doctored.write_text(json.dumps(data))
        assert main(["verify", str(doctored)]) == exitcodes.EXIT_FAILURES

    def test_verify_requires_a_baseline(self, leak_file, tmp_path):
        data = json.loads(leak_file.read_text())
        data["reports"] = data["reports"][1:]  # drop "none"
        doctored = tmp_path / "nobase.json"
        doctored.write_text(json.dumps(data))
        assert main(["verify", str(doctored)]) == exitcodes.EXIT_USAGE


class TestAslrCommand:
    def test_successful_recovery_exits_zero(self, capsys):
        assert main(["aslr", "--seed", "4242"]) == exitcodes.EXIT_OK
        out = capsys.readouterr().out
        assert "(exact)" in out
        assert "bits recovered" in out

    def test_json_report(self, capsys):
        assert main(["aslr", "--seed", "4242", "--json"]) == exitcodes.EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["success"] is True
        assert data["sub_page_recovered"] is True


class TestUsageErrors:
    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == exitcodes.EXIT_USAGE


class TestRangeValidation:
    """Out-of-range numeric flags exit 2 up front, naming the flag."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["channel", "--width", "0"],
            ["channel", "--width", "17"],
            ["channel", "--repeat", "0"],
            ["channel", "--payload-bytes", "0"],
            ["channel", "--noise", "-0.1"],
            ["channel", "--noise", "1.1"],
            ["leak", "--redundancy", "0"],
            ["leak", "--slide-pages", "0"],
            ["leak", "--collision-budget", "0"],
            ["aslr", "--window-bits", "0"],
            ["aslr", "--region-pages", "1"],
        ],
    )
    def test_out_of_range_is_usage_error(self, argv, capsys):
        assert main(argv) == exitcodes.EXIT_USAGE
        err = capsys.readouterr().err
        flag = argv[1]
        assert flag in err and "must be" in err

    def test_bad_interference_preset_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["channel", "--interference", "hurricane"])
        assert exc.value.code == exitcodes.EXIT_USAGE


class TestInterferenceFlags:
    def test_channel_carries_the_preset_into_the_report(self, capsys):
        assert main([
            "channel", "--channel", "cache", "--width", "4",
            "--interference", "desktop", "--resync", "--json",
        ]) == exitcodes.EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["interference"] == "desktop"
        assert data["resync"] is True

    def test_channel_reports_are_rerun_identical(self, capsys):
        argv = [
            "channel", "--channel", "cache", "--width", "4",
            "--interference", "noisy-neighbor", "--json",
        ]
        assert main(argv) == exitcodes.EXIT_OK
        first = capsys.readouterr().out
        assert main(argv) == exitcodes.EXIT_OK
        assert capsys.readouterr().out == first
