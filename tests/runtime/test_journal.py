"""The checkpoint journal shared by both campaign CLIs.

``run_journaled`` is driven inline with a trivial worker: four tasks
whose payload is squared.  Journals for the recovery cases are written
by hand, so each case damages exactly one thing.
"""

import pytest

import repro.runtime.journal as journal_mod
from repro.errors import ConfigError
from repro.runtime.atomic import canonical
from repro.runtime.journal import JOURNAL_SCHEMA, fingerprint, run_journaled
from repro.runtime.quarantine import QUARANTINE_DIR

TASKS = [(i, i) for i in range(4)]


def _square(x):
    return x * x


def _square_until_two(x):
    if x == 2:
        raise KeyboardInterrupt
    return x * x


def _header(campaign=None, schema=JOURNAL_SCHEMA):
    return canonical({"fingerprint": campaign or fingerprint(TASKS), "schema": schema}) + "\n"


def _line(task, key="result"):
    return canonical({key: task * task, "task": task}) + "\n"


def _run(ckpt, ran=None, **kwargs):
    def on_result(task, result):
        if ran is not None:
            ran.append(task)

    return run_journaled(TASKS, _square, checkpoint=ckpt, on_result=on_result, **kwargs)


def _reason(ckpt):
    saved = ckpt.parent / QUARANTINE_DIR / ckpt.name
    assert saved.exists(), "a damaged journal must be moved aside, not deleted"
    return saved.with_name(saved.name + ".reason").read_text()


class TestLayout:
    def test_one_line_per_task_then_deleted(self, tmp_path):
        ckpt = tmp_path / "c.jsonl"
        seen = []
        run = run_journaled(
            TASKS, _square, checkpoint=ckpt, validate=str, encode=int,
            on_result=lambda task, result: seen.append(ckpt.read_text()),
        )
        assert run.results == {0: "0", 1: "1", 2: "4", 3: "9"}
        assert seen == [_header() + "".join(map(_line, range(n + 1))) for n in range(4)]
        assert not ckpt.exists(), "a finished run leaves no journal"

    def test_header_is_written_once(self, tmp_path, monkeypatch):
        ckpt = tmp_path / "c.jsonl"
        ckpt.write_text(_header() + _line(0))
        written = []
        real = journal_mod.atomic_write_text

        def recording(path, text, **kwargs):
            written.append((path, text))
            return real(path, text, **kwargs)

        monkeypatch.setattr(journal_mod, "atomic_write_text", recording)
        _run(ckpt, resume=True)
        assert written == [(ckpt, _header() + _line(0))]

    def test_interrupt_keeps_the_journal(self, tmp_path):
        ckpt = tmp_path / "c.jsonl"
        run = run_journaled(TASKS, _square_until_two, checkpoint=ckpt)
        assert run.report.interrupted
        assert ckpt.read_text() == _header() + _line(0) + _line(1)
        ran = []
        resumed = _run(ckpt, ran, resume=True)
        assert (resumed.resumed, ran) == (2, [2, 3])
        assert resumed.results == {i: i * i for i in range(4)}

    def test_skipped_tasks_are_neither_run_nor_journaled(self, tmp_path):
        ckpt = tmp_path / "c.jsonl"
        ran = []
        run = _run(ckpt, ran, skip={1, 3})
        assert ran == [0, 2] and sorted(run.results) == [0, 2]


class TestRecovery:
    def test_torn_tail_is_quarantined_and_valid_lines_resume(self, tmp_path):
        ckpt = tmp_path / "c.jsonl"
        ckpt.write_text(_header() + _line(0) + _line(1)[:7])
        ran = []
        run = _run(ckpt, ran, resume=True)
        assert (run.resumed, run.quarantined, ran) == (1, 1, [1, 2, 3])
        assert "torn last line (7 bytes)" in _reason(ckpt)

    def test_corrupt_line_is_quarantined_and_others_resume(self, tmp_path):
        ckpt = tmp_path / "c.jsonl"
        ckpt.write_text(_header() + "\xff{oops\n" + _line(1) + _line(1) + _line(9))
        ran = []
        run = _run(ckpt, ran, resume=True)
        assert (run.resumed, run.quarantined, ran) == (1, 1, [0, 2, 3])
        reason = _reason(ckpt)
        for problem in ("line 2:", "line 4: ArtifactError", "line 5: ArtifactError"):
            assert problem in reason

    def test_old_schema_is_quarantined_and_rerun(self, tmp_path):
        ckpt = tmp_path / "c.jsonl"
        ckpt.write_text(_header(schema=2) + _line(0, key="findings"))
        ran = []
        run = _run(ckpt, ran, resume=True)
        assert (run.resumed, run.quarantined, ran) == (0, 1, [0, 1, 2, 3])
        assert "checkpoint schema 2 unsupported" in _reason(ckpt)

    def test_foreign_fingerprint_is_ignored_not_quarantined(self, tmp_path):
        ckpt = tmp_path / "c.jsonl"
        ckpt.write_text(_header(campaign="0" * 64) + _line(0))
        events = []
        run = _run(ckpt, resume=True, progress=events.append)
        assert (run.resumed, run.quarantined) == (0, 0)
        assert not (tmp_path / QUARANTINE_DIR).exists()
        assert any("different campaign" in line for line in events)

    def test_fingerprint_covers_ids_and_payloads(self):
        assert fingerprint(TASKS) != fingerprint([(i, i + 1) for i in range(4)])
        assert fingerprint(TASKS) != fingerprint([(str(i), i) for i in range(4)])
        assert fingerprint(TASKS) == fingerprint(list(TASKS))

    def test_bad_chaos_spec_touches_no_file(self, tmp_path):
        ckpt = tmp_path / "c.jsonl"
        with pytest.raises(ConfigError):
            _run(ckpt, chaos="nuke@1")
        assert not ckpt.exists()
