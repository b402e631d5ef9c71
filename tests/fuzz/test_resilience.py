"""Fuzz campaign resilience: crash survival, checkpoint/resume, quarantine.

Faults come from the shared chaos injector (:mod:`repro.runtime.chaos`);
chaos keys are campaign task indices (``crash@3`` kills the worker
running task 3).  Campaigns here are minimal — one generated program,
one mitigation, no shrinking, no on-disk corpus — so every test is a
real multi-process campaign that still runs in seconds.

The checkpoint is the shared journal (:mod:`repro.runtime.journal`): a
``{"fingerprint", "schema"}`` header line, then one ``{"result",
"task"}`` line per completed task, whose result is the task's findings.
"""

import json
import re

import pytest

import repro.runtime.journal as journal_mod
from repro.errors import CampaignInterrupted
from repro.fuzz.cli import (
    _run_task,
    build_tasks,
    checkpoint_path,
    main,
    run_fuzz_campaign,
)
from repro.fuzz.corpus import replay_order
from repro.runtime.journal import JOURNAL_SCHEMA, fingerprint
from repro.runtime.quarantine import QUARANTINE_DIR

# 8 built-in regression replays + 1 generated case x (differential +
# oracle) = 10 tasks, ids 0..9; replays come first.


def _campaign(**kwargs):
    options = dict(
        budget=1, seed=1, mitigations=["none"], shrink=False, corpus_dir=None
    )
    options.update(kwargs)
    return run_fuzz_campaign(**options)


@pytest.fixture(scope="module")
def baseline():
    return list(_campaign())


def _tasks():
    return build_tasks(
        budget=1, seed=1, mitigations=["none"], model_name=None,
        replay=replay_order(), shrink=False,
    )


def _fingerprint(tasks):
    return fingerprint([(task["task"], task) for task in tasks])


def _journal(task_ids, campaign=None):
    """Journal text recording ``task_ids`` of the ``_campaign()`` task list."""
    tasks = _tasks()
    records = [{
        "fingerprint": campaign or _fingerprint(tasks),
        "schema": JOURNAL_SCHEMA,
    }]
    records += [{"result": _run_task(tasks[i]), "task": i} for i in task_ids]
    return "".join(json.dumps(record, sort_keys=True) + "\n" for record in records)


def _read_lines(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def _quarantined_reason(tmp_path, ckpt):
    saved = tmp_path / QUARANTINE_DIR / ckpt.name
    assert saved.exists(), "the bad checkpoint must be moved aside, not deleted"
    return saved.with_name(saved.name + ".reason").read_text()


class TestCrashIsolation:
    def test_chaos_crash_converges_to_identical_findings(self, baseline):
        chaotic = _campaign(jobs=2, chaos="crash@3", retries=2)
        assert list(chaotic) == baseline
        assert chaotic.retried >= 1
        assert chaotic.failures == []

    def test_crash_without_retries_is_structured_failure(self):
        campaign = _campaign(jobs=2, chaos="crash@3", retries=0)
        (failure,) = campaign.failures
        assert failure.task == 3 and failure.kind == "crash"


class TestCheckpointResume:
    def test_interrupt_writes_checkpoint_then_resume_converges(self, tmp_path, baseline):
        ckpt = checkpoint_path(tmp_path / "f.jsonl")
        with pytest.raises(CampaignInterrupted) as excinfo:
            _campaign(jobs=2, checkpoint=ckpt, chaos="interrupt@0")
        assert excinfo.value.checkpoint == ckpt
        journaled = len(_read_lines(ckpt)) - 1
        assert journaled >= 1, "interrupt left an empty checkpoint"
        resumed = _campaign(jobs=2, checkpoint=ckpt, resume=True)
        assert resumed.resumed == journaled
        assert resumed.quarantined == 0
        assert list(resumed) == baseline
        assert not ckpt.exists(), "checkpoint must be deleted on completion"

    def test_corrupt_checkpoint_is_quarantined_not_trusted(self, tmp_path, baseline):
        ckpt = checkpoint_path(tmp_path / "f.jsonl")
        ckpt.write_text('{"fingerprint": "')  # header torn mid-write
        campaign = _campaign(checkpoint=ckpt, resume=True)
        assert campaign.quarantined == 1
        assert campaign.resumed == 0
        assert list(campaign) == baseline
        assert "torn last line" in _quarantined_reason(tmp_path, ckpt)

    def test_stale_checkpoint_for_other_campaign_is_ignored(self, tmp_path):
        ckpt = checkpoint_path(tmp_path / "f.jsonl")
        ckpt.write_text(_journal([0], campaign="0" * 64))
        campaign = _campaign(checkpoint=ckpt, resume=True)
        assert campaign.resumed == 0
        assert campaign.quarantined == 0
        assert not (tmp_path / QUARANTINE_DIR).exists()

    def test_torn_tail_is_quarantined_and_valid_lines_resume(self, tmp_path, baseline):
        ckpt = checkpoint_path(tmp_path / "f.jsonl")
        text = _journal([0, 9, 8])
        ckpt.write_text(text[: text.rindex("\n", 0, -1) + 20])  # tear task 8
        # Interrupt the resumed run after it journals a new task: every
        # line it appended must stand on its own, not extend the torn one.
        with pytest.raises(CampaignInterrupted):
            _campaign(jobs=2, checkpoint=ckpt, resume=True, chaos="interrupt@3")
        assert "torn last line" in _quarantined_reason(tmp_path, ckpt)
        lines = _read_lines(ckpt)
        assert [line["task"] for line in lines[1:3]] == [0, 9]
        assert len(lines) > 3
        campaign = _campaign(jobs=2, checkpoint=ckpt, resume=True)
        assert campaign.resumed == len(lines) - 1
        assert list(campaign) == baseline

    def test_corrupt_line_is_quarantined_and_others_resume(self, tmp_path, baseline):
        ckpt = checkpoint_path(tmp_path / "f.jsonl")
        header, first, second = _journal([9, 0]).splitlines(keepends=True)
        ckpt.write_text(header + first.replace('"task"', '"tusk"') + second)
        campaign = _campaign(checkpoint=ckpt, resume=True)
        assert (campaign.resumed, campaign.quarantined) == (1, 1)
        assert list(campaign) == baseline
        assert "line 2" in _quarantined_reason(tmp_path, ckpt)

    def test_schema_1_document_is_quarantined_and_rerun(self, tmp_path, baseline):
        ckpt = checkpoint_path(tmp_path / "f.jsonl")
        tasks = _tasks()
        ckpt.write_text(json.dumps({
            "completed": {"9": _run_task(tasks[9])},
            "fingerprint": _fingerprint(tasks),
            "schema": 1,
        }, sort_keys=True) + "\n")
        campaign = _campaign(checkpoint=ckpt, resume=True)
        assert (campaign.resumed, campaign.quarantined) == (0, 1)
        assert list(campaign) == baseline
        assert "schema 1 unsupported" in _quarantined_reason(tmp_path, ckpt)


class TestJournalLayout:
    def test_full_campaign_writes_the_checkpoint_once(self, tmp_path, monkeypatch):
        ckpt = checkpoint_path(tmp_path / "f.jsonl")
        written = []
        real = journal_mod.atomic_write_text

        def recording(path, text, **kwargs):
            written.append(path)
            return real(path, text, **kwargs)

        monkeypatch.setattr(journal_mod, "atomic_write_text", recording)
        _campaign(jobs=2, checkpoint=ckpt)
        assert written == [ckpt]
        assert not ckpt.exists()

    def test_interrupt_leaves_header_plus_one_line_per_task(self, tmp_path):
        ckpt = checkpoint_path(tmp_path / "f.jsonl")
        events = []
        with pytest.raises(CampaignInterrupted):
            _campaign(jobs=2, checkpoint=ckpt, chaos="interrupt@0",
                      progress=events.append)
        completed = [line for line in events
                     if re.match(r"task +\d+ (differential|oracle) ", line)]
        tasks = _tasks()
        header, *records = _read_lines(ckpt)
        assert header == {"fingerprint": _fingerprint(tasks), "schema": JOURNAL_SCHEMA}
        assert len(records) == len(completed) >= 1
        for record in records:
            assert list(record) == ["result", "task"]
            assert record["result"] == _run_task(tasks[record["task"]])


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

    def test_schema_1_checkpoint_is_quarantined_and_rerun(self, tmp_path, capsys):
        clean = tmp_path / "clean.jsonl"
        assert main(self._args(clean)) == 0
        out = tmp_path / "f.jsonl"
        assert main(self._args(out, "--chaos", "interrupt@0")) == 3
        ckpt = checkpoint_path(out)
        # The same results in the indented whole-document layout of schema 1.
        header, *records = _read_lines(ckpt)
        ckpt.write_text(json.dumps({
            "completed": {str(r["task"]): r["result"] for r in records},
            "fingerprint": header["fingerprint"],
            "schema": 1,
        }, indent=2, sort_keys=True) + "\n")
        capsys.readouterr()
        assert main(self._args(out, "--resume")) == 0
        summary = capsys.readouterr().out
        assert "quarantined 1 corrupt file(s)" in summary
        assert "resumed" not in summary
        assert out.read_bytes() == clean.read_bytes()

    def test_corrupt_corpus_entry_is_counted_in_the_summary(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        (corpus / "ab").mkdir(parents=True)
        (corpus / "ab" / "abcd.json").write_text('{"generator": ')
        args = self._args(tmp_path / "f.jsonl")
        args[args.index("--no-corpus")] = "--corpus-dir"
        args.insert(args.index("--corpus-dir") + 1, str(corpus))
        assert main(args) == 0
        summary = capsys.readouterr().out
        assert "+ 8 corpus replays" in summary
        assert "quarantined 1 corrupt file(s)" in summary
        assert (corpus / QUARANTINE_DIR / "abcd.json").exists()

    def test_exhausted_task_exits_1(self, tmp_path, capsys):
        code = main(self._args(
            tmp_path / "f.jsonl", "--chaos", "crash@0", "--retries", "0"
        ))
        assert code == 1
        assert "FAILED task 0" in capsys.readouterr().out

    def test_bad_chaos_spec_is_usage_error(self, tmp_path):
        out = tmp_path / "f.jsonl"
        assert main(self._args(out, "--chaos", "nuke@1")) == 2
        assert not checkpoint_path(out).exists()
