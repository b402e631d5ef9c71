"""The checkpoint journal: the one crash/resume format of both campaigns.

A campaign is a list of ``(task_id, payload)`` pairs run under
:func:`repro.runtime.supervisor.run_supervised`.  With a checkpoint path
set, :func:`run_journaled` keeps an append-only journal there:

* the header line ``{"fingerprint", "schema"}``, written once per run
  with :func:`~repro.runtime.atomic.atomic_write_text` (together with
  any lines recovered from the previous run);
* then one fsync'd :func:`~repro.runtime.atomic.canonical`
  ``{"result", "task"}`` line per completed task.

A line counts once its newline is on disk, so a SIGKILL at any instant
loses at most the tasks still in flight.  The fingerprint is the
:func:`~repro.runtime.atomic.content_key` of the whole task list, so a
journal is only ever replayed into the campaign that wrote it: another
campaign's journal is ignored, not trusted.  A torn tail, a corrupt
line or a header of another schema moves the file to quarantine
(:mod:`repro.runtime.quarantine`) with the reasons, and the valid lines
still resume.  The journal is deleted once a run ends without an
interrupt, so it only ever describes unfinished work.

``repro-fuzz`` journals to ``<out>.checkpoint.json`` and
``repro-experiments`` to ``<json dir>/campaign.checkpoint.jsonl``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Callable, Collection, NamedTuple, Sequence

from repro.errors import ArtifactError
from repro.runtime.atomic import atomic_write_text, canonical, content_key
from repro.runtime.chaos import ChaosPlan
from repro.runtime.quarantine import quarantine
from repro.runtime.supervisor import SupervisorReport, run_supervised

__all__ = ["JOURNAL_SCHEMA", "Journaled", "fingerprint", "run_journaled"]

JOURNAL_SCHEMA = 3

#: What a corrupt journal line raises (JSON and UTF-8 errors are ValueErrors).
_BAD_LINE = (ValueError, KeyError, TypeError, IndexError, ArtifactError)


class Journaled(NamedTuple):
    """What :func:`run_journaled` returns."""

    results: dict            # task id -> validated result, resumed or run now
    report: SupervisorReport
    resumed: int             # tasks replayed from the journal
    quarantined: int         # 1 when a damaged journal was moved aside


def fingerprint(tasks: Sequence[tuple[Any, Any]]) -> str:
    """Content address binding a journal to one exact task list."""
    return content_key({"schema": JOURNAL_SCHEMA, "tasks": tasks})


def _recover(
    path: Path, expected: str, task_ids: set, validate: Callable[[Any], Any],
    say: Callable[[str], None],
) -> tuple[dict, int]:
    """Validated results of a previous run's journal, and the quarantine count."""
    if not path.exists():
        return {}, 0
    *lines, tail = path.read_bytes().split(b"\n")
    problems = [f"torn last line ({len(tail)} bytes)"] if tail else []
    completed: dict = {}
    try:
        header = json.loads(lines[0])
        if header["schema"] != JOURNAL_SCHEMA:
            raise ArtifactError(f"checkpoint schema {header['schema']!r} unsupported")
        if header["fingerprint"] != expected:
            say(f"checkpoint {path} belongs to a different campaign; ignoring")
            return {}, 0
    except _BAD_LINE as exc:
        problems.insert(0, f"line 1: {exc!r}")
        lines = []
    for number, raw in enumerate(lines[1:], start=2):
        try:
            record = json.loads(raw)
            task_id = record["task"]
            if task_id not in task_ids or task_id in completed:
                raise ArtifactError(f"task {task_id!r} unknown or repeated")
            completed[task_id] = validate(record["result"])
        except _BAD_LINE as exc:
            problems.append(f"line {number}: {exc!r}")
    if not problems:
        return completed, 0
    moved = quarantine(path.parent, path, "checkpoint: " + "; ".join(problems))
    say(f"checkpoint {path} had {len(problems)} bad line(s); quarantined, "
        f"keeping {len(completed)} valid task(s)")
    return completed, int(moved is not None)


def _identity(value: Any) -> Any:
    return value


def run_journaled(
    tasks: Sequence[tuple[Any, Any]],
    worker: Callable[[Any], Any],
    *,
    checkpoint: str | Path | None = None,
    resume: bool = False,
    validate: Callable[[Any], Any] = _identity,
    encode: Callable[[Any], Any] = _identity,
    on_result: Callable[[Any, Any], None] | None = None,
    skip: Collection = (),
    chaos: str | None = None,
    progress: Callable[[str], None] | None = None,
    **supervision: Any,
) -> Journaled:
    """Run ``tasks`` through ``worker`` under supervision, journaled.

    ``validate`` turns a raw worker result (or a journaled one) into the
    caller's result type and ``encode`` turns it back into JSON for the
    journal.  ``resume`` replays the journal at ``checkpoint``; tasks in
    ``skip`` (results the caller already has, e.g. cache hits) are
    neither run nor journaled.  ``on_result`` sees each completion after
    its line is on disk.  ``chaos`` is a :class:`ChaosPlan` spec, and
    ``supervision`` (jobs, timeout, retries, batch, grace_s) goes to
    :func:`run_supervised`.  The journal is deleted unless the run was
    interrupted.
    """
    say = progress or (lambda line: None)
    expected = fingerprint(tasks)
    checkpoint = Path(checkpoint) if checkpoint is not None else None
    results: dict = {}
    quarantined = 0
    if resume and checkpoint is not None:
        task_ids = {task_id for task_id, _ in tasks}
        results, quarantined = _recover(checkpoint, expected, task_ids, validate, say)
        if results:
            say(f"resumed {len(results)} completed task(s) from {checkpoint}")
    resumed = len(results)
    journal = None

    def journaled(task_id: Any, result: Any) -> None:
        results[task_id] = result
        if journal is not None:
            journal.write(canonical({"result": encode(result), "task": task_id}) + "\n")
            journal.flush()
            os.fsync(journal.fileno())
        if on_result is not None:
            on_result(task_id, result)

    pending = [(t, p) for t, p in tasks if t not in results and t not in skip]
    plan = ChaosPlan.from_spec(chaos) if chaos else None
    try:
        if checkpoint is not None:
            # The one whole-file write holds the recovered state; from
            # here on only appends touch the journal.
            records = [{"fingerprint": expected, "schema": JOURNAL_SCHEMA}]
            records += [{"result": encode(r), "task": t} for t, r in results.items()]
            atomic_write_text(checkpoint, "".join(canonical(r) + "\n" for r in records))
            journal = checkpoint.open("a", encoding="utf-8")
        report = run_supervised(
            pending, worker, chaos=plan, validate=validate, on_result=journaled,
            progress=say, **supervision,
        )
    finally:
        if journal is not None:
            journal.close()
        if plan is not None:
            plan.cleanup()
    if checkpoint is not None and not report.interrupted:
        checkpoint.unlink(missing_ok=True)
    return Journaled(results, report, resumed, quarantined)
