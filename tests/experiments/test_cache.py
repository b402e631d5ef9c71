"""Cache key derivation and ResultCache hit/miss/invalidation behavior."""

from dataclasses import replace
from pathlib import Path

import repro
from repro.core.config import default_model, get_model
from repro.experiments import cache as cache_mod
from repro.experiments.base import ExperimentResult
from repro.experiments.cache import ResultCache, cache_key, code_digest, source_digest
from repro.runtime.quarantine import QUARANTINE_DIR


def small_result(experiment_id: str = "demo") -> ExperimentResult:
    result = ExperimentResult(
        experiment_id=experiment_id, title="t", headers=["h"]
    )
    result.add_row("v")
    result.metrics["m"] = 1.0
    return result


class TestCacheKey:
    def test_deterministic(self):
        assert cache_key("fig4", 4) == cache_key("fig4", 4)

    def test_changes_with_name(self):
        assert cache_key("fig4", 4) != cache_key("fig5", 4)

    def test_changes_with_seed(self):
        assert cache_key("fig4", 4) != cache_key("fig4", 5)

    def test_changes_with_model(self):
        base = cache_key("fig4", 4, model=default_model())
        other_platform = cache_key("fig4", 4, model=get_model("epyc-7543"))
        tweaked = cache_key(
            "fig4", 4, model=replace(default_model(), timer_noise=0.01)
        )
        assert base != other_platform
        assert base != tweaked

    def test_changes_with_version(self, monkeypatch):
        # The code version is the digest of the package sources.
        before = cache_key("fig4", 4)
        monkeypatch.setattr(cache_mod, "code_digest", lambda: "0" * 64)
        assert cache_key("fig4", 4) != before

    def test_code_digest_is_the_package_source_digest(self):
        assert code_digest() == source_digest(Path(repro.__file__).resolve().parent)

    def test_source_digest_follows_file_contents_and_names(self, tmp_path):
        (tmp_path / "a.py").write_text("X = 1\n")
        (tmp_path / "notes.txt").write_text("not code")
        first = source_digest(tmp_path)
        (tmp_path / "notes.txt").write_text("still not code")
        assert source_digest(tmp_path) == first
        (tmp_path / "a.py").write_text("X = 2\n")
        edited = source_digest(tmp_path)
        assert edited != first
        (tmp_path / "a.py").rename(tmp_path / "b.py")
        assert source_digest(tmp_path) != edited


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        key = cache_key("demo", 1)
        assert cache.get(key) is None
        cache.put(key, small_result())
        hit = cache.get(key)
        assert hit is not None
        assert hit.cache_hit is True
        assert hit.rows == [["v"]]
        assert cache.hits == 1 and cache.misses == 1

    def test_seed_change_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        cache.put(cache_key("demo", 1), small_result())
        assert cache.get(cache_key("demo", 2)) is None

    def test_source_change_invalidates(self, tmp_path, monkeypatch):
        sources = tmp_path / "src"
        sources.mkdir()
        (sources / "driver.py").write_text("RATE = 1\n")
        monkeypatch.setattr(cache_mod, "code_digest", lambda: source_digest(sources))
        cache = ResultCache(tmp_path / "c")
        cache.put(cache_key("demo", 1), small_result())
        assert cache.get(cache_key("demo", 1)) is not None
        (sources / "driver.py").write_text("RATE = 2\n")
        assert cache.get(cache_key("demo", 1)) is None

    def test_model_change_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        cache.put(cache_key("demo", 1, model=default_model()), small_result())
        assert cache.get(cache_key("demo", 1, model=get_model("epyc-7543"))) is None

    def test_stored_entry_never_claims_cache_hit(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        key = cache_key("demo", 1)
        hit = small_result()
        hit.cache_hit = True  # replayed result being re-stored
        cache.put(key, hit)
        import json

        stored = json.loads(cache._entry(key).read_text())
        assert stored["cache_hit"] is False

    def test_corrupt_entry_is_a_miss_and_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        key = cache_key("demo", 1)
        entry = cache._entry(key)
        entry.parent.mkdir(parents=True)
        entry.write_text("{broken")
        assert cache.get(key) is None
        # Preserved for post-mortems, not deleted: moved to quarantine/
        # with a reason sidecar, and counted.
        assert not entry.exists()
        assert cache.quarantined == 1
        saved = cache.root / QUARANTINE_DIR / entry.name
        assert saved.read_text() == "{broken"
        assert "JSON" in saved.with_name(saved.name + ".reason").read_text()
        assert len(cache) == 0  # quarantined entries do not count as stored

    def test_len_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        assert len(cache) == 0
        cache.put(cache_key("a", 1), small_result("a"))
        cache.put(cache_key("b", 1), small_result("b"))
        assert len(cache) == 2
        cache.clear()
        assert len(cache) == 0
