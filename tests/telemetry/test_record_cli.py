"""Recording targets and the ``repro-trace`` CLI end to end.

The acceptance path of the telemetry subsystem: record the Spectre-STL
demo under ``none`` and ``ssbd`` and prove ``diff`` pinpoints the first
divergent event — the mitigated run's stld-predict stops reporting a
predicted bypass.  Re-recording must be byte-identical (the determinism
contract ``make trace-smoke`` enforces across ``--jobs``).
"""

import json

import pytest

from repro.runtime import exitcodes
from repro.telemetry.cli import main
from repro.telemetry.record import record_target, target_slug, trace_path
from repro.telemetry.sinks import read_trace


class TestRecordTarget:
    def test_slug_and_path(self, tmp_path):
        assert target_slug("stl", "ssbd") == "stl-ssbd"
        assert target_slug("case:fuzz-v1:5:12", "none") == "case-fuzz-v1-5-12-none"
        path = trace_path(tmp_path, "stl", "none")
        assert path.name == "stl-none.trace.jsonl"

    def test_stl_demo_records(self, tmp_path):
        row = record_target("stl", tmp_path, seed=None, mitigation="none")
        assert row["events"] > 0
        header, events = read_trace(row["path"])
        assert header["target"] == "stl"
        assert any(e["kind"] == "stld-predict" for e in events)
        assert any(e["kind"] == "predictor-transition" for e in events)

    def test_case_target_records(self, tmp_path):
        row = record_target("case:fuzz-v1:5:12", tmp_path, seed=None,
                            mitigation="none")
        _, events = read_trace(row["path"])
        assert events, "generated case must emit events"

    def test_unknown_mitigation_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            record_target("stl", tmp_path, seed=None, mitigation="bogus")

    def test_rerecording_is_byte_identical(self, tmp_path):
        a = record_target("stl", tmp_path / "a", seed=None, mitigation="none")
        b = record_target("stl", tmp_path / "b", seed=None, mitigation="none")
        assert open(a["path"], "rb").read() == open(b["path"], "rb").read()


@pytest.fixture(scope="module")
def stl_traces(tmp_path_factory):
    out = tmp_path_factory.mktemp("traces")
    none_row = record_target("stl", out, seed=None, mitigation="none")
    ssbd_row = record_target("stl", out, seed=None, mitigation="ssbd")
    return none_row["path"], ssbd_row["path"]


class TestCli:
    def test_record_and_summarize(self, tmp_path, capsys):
        code = main(["record", "stl", "--out", str(tmp_path)])
        assert code == exitcodes.EXIT_OK
        trace = tmp_path / "stl-none.trace.jsonl"
        assert trace.exists()
        capsys.readouterr()  # drain the record command's own output

        code = main(["summarize", str(trace), "--json"])
        assert code == exitcodes.EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["events"] > 0
        assert payload["summary"]["table1_edges"]

    def test_diff_pinpoints_mitigation_divergence(self, stl_traces, capsys):
        none_path, ssbd_path = stl_traces
        code = main(["diff", str(none_path), str(ssbd_path)])
        out = capsys.readouterr().out
        # SSBD forces every prediction into Block: the first divergent
        # event is an stld-predict whose aliasing/bypass fields flip.
        assert code == exitcodes.EXIT_FAILURES
        assert "first divergence" in out
        assert "stld-predict" in out

    def test_diff_identical_exits_zero(self, stl_traces, capsys):
        none_path, _ = stl_traces
        assert main(["diff", str(none_path), str(none_path)]) == exitcodes.EXIT_OK
        assert "identical" in capsys.readouterr().out

    def test_export_chrome(self, stl_traces, tmp_path):
        none_path, _ = stl_traces
        out = tmp_path / "trace.json"
        code = main(["export", str(none_path), "--format", "chrome",
                     "--out", str(out)])
        assert code == exitcodes.EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["traceEvents"]

    def test_export_timeline_stdout(self, stl_traces, capsys):
        none_path, _ = stl_traces
        assert main(["export", str(none_path), "--format", "timeline"]) \
            == exitcodes.EXIT_OK
        assert "stld-predict" in capsys.readouterr().out

    @pytest.mark.parametrize("target", [
        "case:bogus:1:2",        # unknown generator
        "case:fuzz-v1:x:2",      # non-integer seed
        "no-such-experiment",    # unknown experiment name
    ])
    def test_bad_record_target_is_usage_error(self, target, tmp_path, capsys):
        code = main(["record", "stl", target, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == exitcodes.EXIT_USAGE
        assert len(err.splitlines()) == 1 and err.startswith("repro-trace: ")
        # Checked before scheduling: not even the valid target recorded.
        assert not list(tmp_path.iterdir())

    def test_bad_trace_is_usage_error(self, tmp_path, capsys):
        missing = tmp_path / "nope.jsonl"
        assert main(["summarize", str(missing)]) == exitcodes.EXIT_USAGE

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "repro-trace" in capsys.readouterr().out
