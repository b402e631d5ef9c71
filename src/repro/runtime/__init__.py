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
