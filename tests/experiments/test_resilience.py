"""Campaign resilience: interruption, checkpoint recovery, quarantine.

Pool-mode coverage drives faults through the chaos injector
(:mod:`repro.runtime.chaos`) rather than mocks — a chaos crash kills the
worker process exactly like the BrokenProcessPool scenarios the old
executor could not survive.  Fast-tier experiments keep these quick.
The journal format itself is covered in tests/runtime/test_journal.py.
"""

import json

import pytest

from repro.errors import CampaignInterrupted, ConfigError
from repro.experiments.artifacts import CHECKPOINT_NAME, MANIFEST_NAME
from repro.experiments.base import ExperimentResult
from repro.experiments.cache import ResultCache, cache_key
from repro.experiments.runner import EXPERIMENTS, ExperimentSpec, main, run_campaign
from repro.runtime.quarantine import QUARANTINE_DIR

SMOKE = ["fig4", "sec3-selection"]  # two cheap fast-tier experiments


def _ok_driver(seed=0):
    result = ExperimentResult(experiment_id="ok", title="t", headers=["h"])
    result.add_row("v")
    return result


def _interrupt_driver(seed=0):
    raise KeyboardInterrupt


def _stable(names, json_dir, **kwargs):
    options = dict(jobs=2, use_cache=False, stable_meta=True, json_dir=json_dir)
    options.update(kwargs)
    return run_campaign(names, **options)


def _manifest(json_dir):
    return json.loads((json_dir / MANIFEST_NAME).read_text())


def _quarantined(root):
    """The quarantined payload files under ``root`` (no reason sidecars)."""
    return sorted(
        path.name for path in (root / QUARANTINE_DIR).iterdir()
        if not path.name.endswith(".reason")
    )


def _interrupted(json_dir, **kwargs):
    """The journal of a SMOKE campaign interrupted after fig4, as lines."""
    with pytest.raises(CampaignInterrupted):
        _stable(SMOKE, json_dir, chaos="interrupt@fig4", **kwargs)
    lines = (json_dir / CHECKPOINT_NAME).read_text().splitlines(keepends=True)
    assert "fig4" in [json.loads(line)["task"] for line in lines[1:]]
    return lines


class TestKeyboardInterrupt:
    def test_inline_interrupt_checkpoints_and_raises(self, tmp_path, monkeypatch):
        monkeypatch.setitem(
            EXPERIMENTS, "ok", ExperimentSpec(_ok_driver, "X", "fast")
        )
        monkeypatch.setitem(
            EXPERIMENTS, "boom", ExperimentSpec(_interrupt_driver, "X", "fast")
        )
        results = tmp_path / "results"
        with pytest.raises(CampaignInterrupted) as excinfo:
            run_campaign(["ok", "boom"], jobs=1, use_cache=False, json_dir=results)
        assert excinfo.value.partial.completed_names == ["ok"]
        assert excinfo.value.checkpoint == results / CHECKPOINT_NAME
        _, record = excinfo.value.checkpoint.read_text().splitlines()
        assert json.loads(record)["task"] == "ok"
        manifest = _manifest(results)
        assert manifest["interrupted"] is True
        assert [e["name"] for e in manifest["experiments"]] == ["ok"]

    def test_chaos_interrupt_then_resume_converges(self, tmp_path):
        baseline = tmp_path / "baseline"
        _stable(SMOKE, baseline)
        results = tmp_path / "results"
        with pytest.raises(CampaignInterrupted):
            _stable(SMOKE, results, chaos="interrupt@fig4")
        assert _manifest(results)["interrupted"] is True
        resumed = _stable(SMOKE, results, resume=True)
        assert resumed.resumed >= 1
        assert not (results / CHECKPOINT_NAME).exists()
        assert (results / MANIFEST_NAME).read_bytes() == (
            baseline / MANIFEST_NAME
        ).read_bytes()


class TestCheckpointRecovery:
    def test_truncated_journal_is_quarantined_and_valid_lines_resume(self, tmp_path):
        baseline = tmp_path / "baseline"
        _stable(SMOKE, baseline)
        results = tmp_path / "results"
        lines = _interrupted(results)
        torn = "".join(lines) + lines[-1][:40]
        (results / CHECKPOINT_NAME).write_text(torn)
        campaign = _stable(SMOKE, results, resume=True)
        assert campaign.resumed == len(lines) - 1
        assert campaign.quarantined == 1
        assert _quarantined(results) == [CHECKPOINT_NAME]
        assert _manifest(results)["quarantined"] == 1
        for name in SMOKE:
            artifact = f"{name}.json"
            assert (results / artifact).read_bytes() == (baseline / artifact).read_bytes()

    def test_corrupt_journal_line_is_quarantined_and_rerun(self, tmp_path):
        results = tmp_path / "results"
        lines = _interrupted(results)
        damaged = ["\xff not json\n" if '"fig4"' in line else line for line in lines]
        (results / CHECKPOINT_NAME).write_text("".join(damaged))
        campaign = _stable(SMOKE, results, resume=True)
        assert campaign.resumed == len(lines) - 2
        assert campaign.quarantined == 1
        assert campaign.completed_names == SMOKE  # fig4 was re-run, not lost

    def test_journal_of_another_seed_is_not_resumed(self, tmp_path):
        results = tmp_path / "results"
        _interrupted(results)
        campaign = _stable(SMOKE, results, resume=True, seed=999)
        assert campaign.resumed == 0
        assert campaign.quarantined == 0
        assert [result.seed for result in campaign] == [999, 999]

    def test_resume_without_json_dir_is_config_error(self):
        with pytest.raises(ConfigError):
            run_campaign(["fig4"], resume=True)


class TestCacheQuarantine:
    def test_invalid_utf8_entry_is_quarantined_and_counted(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        key = cache_key("demo", 1)
        entry = cache._entry(key)
        entry.parent.mkdir(parents=True)
        entry.write_bytes(b"\xff\xfe\x00garbage")
        assert cache.get(key) is None
        assert cache.quarantined == 1
        assert not entry.exists()
        assert _quarantined(cache.root) == [entry.name]

    def test_quarantined_count_surfaces_in_manifest(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cache = ResultCache(cache_dir)
        key = cache_key("fig4", EXPERIMENTS["fig4"].default_seed)
        entry = cache._entry(key)
        entry.parent.mkdir(parents=True)
        entry.write_text("{broken")
        results = tmp_path / "results"
        run_campaign(["fig4"], use_cache=True, cache_dir=cache_dir,
                     json_dir=results)
        assert _manifest(results)["quarantined"] == 1


class TestCrashIsolation:
    def test_chaos_crash_campaign_converges_byte_identical(self, tmp_path):
        baseline = tmp_path / "baseline"
        _stable(SMOKE, baseline)
        results = tmp_path / "results"
        campaign = _stable(SMOKE, results, chaos="crash@fig4", retries=2)
        assert campaign.retried >= 1
        assert campaign.failures == []
        assert (results / MANIFEST_NAME).read_bytes() == (
            baseline / MANIFEST_NAME
        ).read_bytes()

    def test_crash_without_retries_is_structured_failure(self, tmp_path):
        results = tmp_path / "results"
        campaign = _stable(SMOKE, results, chaos="crash@fig4", retries=0)
        assert campaign.completed_names == ["sec3-selection"]
        (failure,) = campaign.failures
        assert failure.task == "fig4" and failure.kind == "crash"
        manifest = _manifest(results)
        entry = next(e for e in manifest["experiments"] if e["name"] == "fig4")
        assert entry["status"] == "failed"
        assert entry["failure"]["kind"] == "crash"
        assert manifest["failures"] and manifest["interrupted"] is False


class TestMainExitCodes:
    def _args(self, tmp_path, *extra):
        return [
            *SMOKE, "--json", str(tmp_path / "results"), "--no-cache",
            "--stable-meta", "--jobs", "2", *extra,
        ]

    def test_interrupt_exits_3_then_resume_exits_0(self, tmp_path, capsys):
        code = main(self._args(tmp_path, "--chaos", "interrupt@fig4"))
        assert code == 3
        assert "--resume" in capsys.readouterr().err
        code = main(self._args(tmp_path, "--resume"))
        assert code == 0
        assert "resumed" in capsys.readouterr().out

    def test_interrupt_without_json_says_no_checkpoint(self, capsys):
        code = main(["fig4", "sec3-selection", "--jobs", "2", "--no-cache",
                     "--chaos", "interrupt@fig4"])
        assert code == 3
        err = capsys.readouterr().err
        assert "None" not in err and "--resume" not in err
        assert "no checkpoint was written" in err

    def test_exhausted_task_exits_1(self, tmp_path, capsys):
        code = main(
            self._args(tmp_path, "--chaos", "crash@fig4", "--retries", "0")
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "FAILED fig4" in out and "1 failed" in out

    def test_resume_without_json_is_usage_error(self, capsys):
        assert main(["fig4", "--resume", "--no-cache"]) == 2


def test_quarantine_never_deletes(tmp_path):
    """The non-negotiable: corrupt state is preserved for post-mortems."""
    results = tmp_path / "results"
    lines = _interrupted(results)
    damaged = "".join(lines)[:-25]
    (results / CHECKPOINT_NAME).write_text(damaged)
    _stable(SMOKE, results, resume=True)
    saved = results / QUARANTINE_DIR / CHECKPOINT_NAME
    assert saved.read_text() == damaged
    reason = saved.with_name(saved.name + ".reason")
    assert "torn last line" in reason.read_text()
