"""Fuzz campaign resilience: crash survival, checkpoint/resume, quarantine.

Faults come from the shared chaos injector (:mod:`repro.runtime.chaos`);
chaos keys are campaign task indices (``crash@3`` kills the worker
running task 3).  Campaigns here are minimal — one generated program,
one mitigation, no shrinking, no on-disk corpus — so every test is a
real multi-process campaign that still runs in seconds.
"""

import json

import pytest

from repro.errors import CampaignInterrupted
from repro.fuzz.cli import (
    _campaign_fingerprint,
    _run_task,
    build_tasks,
    checkpoint_path,
    main,
    run_fuzz_campaign,
)
from repro.fuzz.corpus import replay_order
from repro.runtime.quarantine import QUARANTINE_DIR

# 8 built-in regression replays + 1 generated case x (differential +
# oracle) = 10 tasks, ids 0..9; replays come first.


def _campaign(**kwargs):
    options = dict(
        budget=1, seed=1, mitigations=["none"], shrink=False, corpus_dir=None
    )
    options.update(kwargs)
    return run_fuzz_campaign(**options)


class TestCrashIsolation:
    def test_chaos_crash_converges_to_identical_findings(self):
        baseline = _campaign(jobs=2)
        chaotic = _campaign(jobs=2, chaos="crash@3", retries=2)
        assert list(chaotic) == list(baseline)
        assert chaotic.retried >= 1
        assert chaotic.failures == []

    def test_crash_without_retries_is_structured_failure(self):
        campaign = _campaign(jobs=2, chaos="crash@3", retries=0)
        (failure,) = campaign.failures
        assert failure.task == 3 and failure.kind == "crash"


class TestCheckpointResume:
    def test_interrupt_writes_checkpoint_then_resume_converges(self, tmp_path):
        baseline = _campaign(jobs=2)
        ckpt = checkpoint_path(tmp_path / "f.jsonl")
        with pytest.raises(CampaignInterrupted) as excinfo:
            _campaign(jobs=2, checkpoint=ckpt, chaos="interrupt@0")
        assert excinfo.value.checkpoint == ckpt
        data = json.loads(ckpt.read_text())
        assert data["completed"], "interrupt left an empty checkpoint"
        resumed = _campaign(jobs=2, checkpoint=ckpt, resume=True)
        assert resumed.resumed >= 1
        assert list(resumed) == list(baseline)
        assert not ckpt.exists(), "checkpoint must be deleted on completion"

    def test_corrupt_checkpoint_is_quarantined_not_trusted(self, tmp_path):
        baseline = _campaign()
        ckpt = checkpoint_path(tmp_path / "f.jsonl")
        ckpt.write_text('{"schema": 1, "completed"')  # truncated mid-write
        campaign = _campaign(checkpoint=ckpt, resume=True)
        assert campaign.quarantined == 1
        assert campaign.resumed == 0
        assert list(campaign) == list(baseline)
        saved = tmp_path / QUARANTINE_DIR / ckpt.name
        assert saved.exists() and saved.with_name(saved.name + ".reason").exists()

    def test_stale_checkpoint_for_other_campaign_is_ignored(self, tmp_path):
        ckpt = checkpoint_path(tmp_path / "f.jsonl")
        ckpt.write_text(json.dumps(
            {"schema": 1, "fingerprint": "0" * 64, "completed": {"0": []}}
        ))
        campaign = _campaign(checkpoint=ckpt, resume=True)
        assert campaign.resumed == 0
        assert campaign.quarantined == 0


class TestCheckpointLayout:
    def test_checkpoint_loads_to_the_documented_document(self, tmp_path):
        ckpt = checkpoint_path(tmp_path / "f.jsonl")
        with pytest.raises(CampaignInterrupted):
            _campaign(jobs=2, checkpoint=ckpt, chaos="interrupt@0")
        data = json.loads(ckpt.read_text())
        assert data["completed"], "interrupt left an empty checkpoint"
        tasks = build_tasks(
            budget=1, seed=1, mitigations=["none"], model_name=None,
            replay=replay_order(), shrink=False,
        )
        completed = {
            task_id: _run_task(tasks[int(task_id)]) for task_id in data["completed"]
        }
        # What the whole-document dump of the same results loaded to.
        assert data == json.loads(json.dumps({
            "schema": 1,
            "fingerprint": _campaign_fingerprint(tasks),
            "completed": completed,
        }))


class TestMainExitCodes:
    def _args(self, out, *extra):
        return [
            "--budget", "1", "--seed", "1", "--mitigation", "none",
            "--no-shrink", "--no-corpus", "--jobs", "2",
            "--out", str(out), *extra,
        ]

    def test_interrupt_exits_3_then_resume_exits_0(self, tmp_path, capsys):
        clean = tmp_path / "clean.jsonl"
        assert main(self._args(clean)) == 0
        out = tmp_path / "f.jsonl"
        code = main(self._args(out, "--chaos", "interrupt@0"))
        assert code == 3
        assert checkpoint_path(out).exists()
        assert "--resume" in capsys.readouterr().err
        code = main(self._args(out, "--resume"))
        assert code == 0
        assert not checkpoint_path(out).exists()
        assert out.read_bytes() == clean.read_bytes()

    def test_indented_checkpoint_still_resumes(self, tmp_path, capsys):
        clean = tmp_path / "clean.jsonl"
        assert main(self._args(clean)) == 0
        out = tmp_path / "f.jsonl"
        assert main(self._args(out, "--chaos", "interrupt@0")) == 3
        ckpt = checkpoint_path(out)
        # Rewrite in the indented layout earlier versions wrote.
        data = json.loads(ckpt.read_text())
        ckpt.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        capsys.readouterr()
        assert main(self._args(out, "--resume")) == 0
        assert "resumed" in capsys.readouterr().out
        assert out.read_bytes() == clean.read_bytes()

    def test_exhausted_task_exits_1(self, tmp_path, capsys):
        code = main(self._args(
            tmp_path / "f.jsonl", "--chaos", "crash@0", "--retries", "0"
        ))
        assert code == 1
        assert "FAILED task 0" in capsys.readouterr().out

    def test_bad_chaos_spec_is_usage_error(self, tmp_path):
        assert main(self._args(tmp_path / "f.jsonl", "--chaos", "nuke@1")) == 2
