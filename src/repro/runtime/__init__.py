"""Resilient campaign runtime shared by every repro console script.

The campaigns — ``repro-experiments``, ``repro-fuzz`` and ``repro-scan
scan``/``crossval`` — are long-running batch jobs whose value depends on
surviving partial failure: a hung driver must not stall the pool, a
crashed worker must not abort the campaign, and a SIGKILL mid-run must
never leave truncated JSON behind.  This package owns that discipline so
the CLIs cannot drift apart:

* :mod:`repro.runtime.atomic` — the one atomic-persistence helper
  (tmp file + fsync + ``os.replace``) every JSON/JSONL writer uses, and
  the one canonical JSON serialization and content key;
* :mod:`repro.runtime.supervisor` — a supervised process pool with
  per-task deadlines, capped deterministic retry backoff, crash
  isolation, graceful SIGINT/SIGTERM drains and the per-task meter;
* :mod:`repro.runtime.journal` — the one checkpoint format: an
  append-only journal of completed tasks that ``--resume`` replays on
  ``repro-experiments`` and ``repro-fuzz``;
* :mod:`repro.runtime.quarantine` — corrupt state files are moved aside
  with a reason file and counted, never silently deleted;
* :mod:`repro.runtime.chaos` — the test-only fault injector that proves
  all of the above actually works (``--chaos`` / ``REPRO_RUNTIME_CHAOS``);
* :mod:`repro.runtime.cliutil` — the shared flags and ``main`` wrapper;
* :mod:`repro.runtime.exitcodes` — the exit-code contract of all five
  console scripts (0 ok, 1 findings/failed tasks, 2 usage, 3 interrupted).

See docs/resilience.md for the full semantics.
"""

from repro.runtime.atomic import (
    atomic_write_json,
    atomic_write_text,
    canonical,
    content_key,
)
from repro.runtime.chaos import ChaosPlan
from repro.runtime.exitcodes import (
    EXIT_FAILURES,
    EXIT_INTERRUPTED,
    EXIT_OK,
    EXIT_USAGE,
)
from repro.runtime.journal import JOURNAL_SCHEMA, Journaled, run_journaled
from repro.runtime.quarantine import QUARANTINE_DIR, quarantine
from repro.runtime.supervisor import (
    DEFAULT_GRACE_S,
    DEFAULT_RETRIES,
    SupervisorReport,
    TaskFailure,
    backoff_schedule,
    run_supervised,
)

__all__ = [
    "atomic_write_json",
    "atomic_write_text",
    "canonical",
    "content_key",
    "ChaosPlan",
    "JOURNAL_SCHEMA",
    "Journaled",
    "run_journaled",
    "EXIT_OK",
    "EXIT_FAILURES",
    "EXIT_USAGE",
    "EXIT_INTERRUPTED",
    "QUARANTINE_DIR",
    "quarantine",
    "DEFAULT_RETRIES",
    "DEFAULT_GRACE_S",
    "SupervisorReport",
    "TaskFailure",
    "backoff_schedule",
    "run_supervised",
]
