"""Campaign engine behavior: parallel == serial, caching, catalog sync."""

import json
import re
from pathlib import Path

import pytest

from repro.experiments.artifacts import MANIFEST_NAME, read_artifact
from repro.experiments.runner import EXPERIMENTS, run_campaign

SMOKE = ["fig4", "sec3-selection"]  # two cheap fast-tier experiments


class TestParallelMatchesSerial:
    @pytest.fixture(scope="class")
    def serial(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("serial")
        return run_campaign(
            SMOKE, jobs=1, use_cache=False, json_dir=root / "results"
        ), root / "results"

    def test_two_workers_identical_rows(self, serial, tmp_path):
        serial_results, _ = serial
        parallel_results = run_campaign(
            SMOKE, jobs=2, use_cache=False, json_dir=tmp_path / "results"
        )
        for ours, theirs in zip(serial_results, parallel_results):
            assert ours.rows == theirs.rows
            assert ours.metrics == theirs.metrics
            assert ours.headers == theirs.headers

    def test_artifacts_written_per_experiment(self, serial):
        _, results_dir = serial
        for name in SMOKE:
            artifact = read_artifact(results_dir / f"{name}.json")
            assert artifact.rows
            assert artifact.seed == EXPERIMENTS[name].default_seed
            assert artifact.wall_time_s is not None
            assert artifact.worker.startswith("pid:")

    def test_manifest_summarizes_run(self, serial):
        _, results_dir = serial
        manifest = json.loads((results_dir / MANIFEST_NAME).read_text())
        assert [e["name"] for e in manifest["experiments"]] == SMOKE
        assert all(e["cache_key"] for e in manifest["experiments"])
        assert manifest["jobs"] == 1


class TestCampaignCache:
    def test_warm_rerun_replays_everything(self, tmp_path):
        cold = run_campaign(["fig4"], cache_dir=tmp_path / "cache")
        warm = run_campaign(["fig4"], cache_dir=tmp_path / "cache")
        assert cold[0].cache_hit is False
        assert warm[0].cache_hit is True
        assert warm[0].rows == cold[0].rows

    def test_seed_override_misses_and_refills(self, tmp_path):
        run_campaign(["fig4"], cache_dir=tmp_path / "cache")
        other = run_campaign(["fig4"], seed=123, cache_dir=tmp_path / "cache")
        assert other[0].cache_hit is False
        assert other[0].seed == 123
        again = run_campaign(["fig4"], seed=123, cache_dir=tmp_path / "cache")
        assert again[0].cache_hit is True


class TestCatalogSync:
    CATALOG = Path(__file__).resolve().parents[2] / "docs" / "experiments.md"

    def catalog_names(self) -> list[str]:
        text = self.CATALOG.read_text(encoding="utf-8")
        return re.findall(r"^## `([^`]+)`$", text, flags=re.MULTILINE)

    def test_catalog_documents_every_registry_entry(self):
        assert set(self.catalog_names()) == set(EXPERIMENTS)

    def test_catalog_order_matches_registry(self):
        assert self.catalog_names() == list(EXPERIMENTS)

    def test_catalog_covers_all_27_artifacts(self):
        assert len(self.catalog_names()) == 27

    def test_catalog_states_each_default_seed(self):
        text = self.CATALOG.read_text(encoding="utf-8")
        for name, spec in EXPERIMENTS.items():
            section = text.split(f"## `{name}`")[1].split("## `")[0]
            assert f"default seed {spec.default_seed}" in section, name
            assert f"**Cost tier:** {spec.cost}" in section, name
