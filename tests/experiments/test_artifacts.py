"""Round-trip tests for ExperimentResult JSON serialization and artifacts."""

import json

import pytest

from repro.errors import ArtifactError
from repro.experiments.artifacts import (
    MANIFEST_NAME,
    artifact_path,
    load_artifacts,
    read_artifact,
    write_artifact,
    write_manifest,
)
from repro.experiments.base import RESULT_SCHEMA_VERSION, ExperimentResult


def sample_result() -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="demo",
        title="round trip",
        headers=["name", "value", "ok"],
        paper_claim="claims survive serialization",
    )
    result.add_row("alpha", 1.5, True)
    result.add_row("beta", 42, False)
    result.add_note("one note")
    result.metrics["accuracy"] = 0.9995          # float
    result.metrics["bandwidth"] = "416 B/s"      # str
    result.metrics["count"] = 64                 # int
    result.seed = 7
    result.wall_time_s = 1.25
    result.worker = "pid:1"
    return result


class TestRoundTrip:
    def test_dict_round_trip_is_lossless(self):
        original = sample_result()
        restored = ExperimentResult.from_dict(original.to_dict())
        assert restored == original

    def test_json_round_trip_preserves_mixed_metric_types(self):
        data = json.loads(json.dumps(sample_result().to_dict()))
        restored = ExperimentResult.from_dict(data)
        assert restored.metrics["accuracy"] == pytest.approx(0.9995)
        assert isinstance(restored.metrics["accuracy"], float)
        assert restored.metrics["bandwidth"] == "416 B/s"
        assert restored.metrics["count"] == 64
        assert isinstance(restored.metrics["count"], int)

    def test_rows_preserve_bools_numbers_strings(self):
        restored = ExperimentResult.from_dict(
            json.loads(json.dumps(sample_result().to_dict()))
        )
        assert restored.rows == [["alpha", 1.5, True], ["beta", 42, False]]

    def test_non_json_cells_degrade_to_str(self):
        result = sample_result()
        result.add_row(object(), 1, True)
        cell = result.to_dict()["rows"][-1][0]
        assert isinstance(cell, str)

    def test_schema_stamp_present_and_checked(self):
        data = sample_result().to_dict()
        assert data["schema"] == RESULT_SCHEMA_VERSION
        data["schema"] = 99
        with pytest.raises(ArtifactError):
            ExperimentResult.from_dict(data)

    def test_missing_required_key_raises(self):
        data = sample_result().to_dict()
        del data["title"]
        with pytest.raises(ArtifactError):
            ExperimentResult.from_dict(data)

    def test_non_dict_raises(self):
        with pytest.raises(ArtifactError):
            ExperimentResult.from_dict([1, 2, 3])


class TestArtifactFiles:
    def test_write_then_read(self, tmp_path):
        original = sample_result()
        path = write_artifact(original, tmp_path, "demo")
        assert path == artifact_path(tmp_path, "demo")
        assert read_artifact(path) == original

    def test_registry_name_overrides_experiment_id(self, tmp_path):
        path = write_artifact(sample_result(), tmp_path, "other-name")
        assert path.name == "other-name.json"

    def test_load_artifacts_skips_manifest(self, tmp_path):
        write_artifact(sample_result(), tmp_path, "demo")
        write_manifest(tmp_path, [{"name": "demo"}], jobs=2)
        loaded = load_artifacts(tmp_path)
        assert list(loaded) == ["demo"]
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
        assert manifest["jobs"] == 2
        assert manifest["experiments"][0]["name"] == "demo"

    def test_missing_artifact_raises(self, tmp_path):
        with pytest.raises(ArtifactError):
            read_artifact(tmp_path / "nope.json")

    def test_corrupt_artifact_raises(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ArtifactError):
            read_artifact(bad)
