"""The exit-code contract of every repro console script.

All five CLIs report outcomes through the same four codes, mapped from
exceptions in one place (:func:`repro.runtime.cliutil.console_main`), so
shell drivers (the Makefile smoke targets, CI) can treat them uniformly:

========================  =====  ==================================================
constant                  value  meaning
========================  =====  ==================================================
:data:`EXIT_OK`           0      completed clean
:data:`EXIT_FAILURES`     1      completed, but with regressions/failures/diffs
:data:`EXIT_USAGE`        2      bad invocation (argparse, unknown name/mitigation)
:data:`EXIT_INTERRUPTED`  3      SIGINT/SIGTERM before the run completed
========================  =====  ==================================================

``EXIT_FAILURES`` covers fuzzing regressions (architectural divergences,
mitigated leaks) *and* tasks that exhausted their retry budget — either
way the campaign finished but its result is not clean.  After an
``EXIT_INTERRUPTED`` stderr says whether a checkpoint was written; if one
was (``repro-experiments --json``, ``repro-fuzz``), the same command line
plus ``--resume`` continues from it.
"""

from __future__ import annotations

__all__ = ["EXIT_OK", "EXIT_FAILURES", "EXIT_USAGE", "EXIT_INTERRUPTED", "describe"]

EXIT_OK = 0
EXIT_FAILURES = 1
EXIT_USAGE = 2
EXIT_INTERRUPTED = 3

_MEANINGS = {
    EXIT_OK: "completed clean",
    EXIT_FAILURES: "completed with regressions, failed tasks or differences",
    EXIT_USAGE: "bad invocation",
    EXIT_INTERRUPTED: "interrupted; stderr names the checkpoint to --resume "
                      "from, if one was written",
}


def describe(code: int) -> str:
    """Human-readable meaning of a campaign exit code."""
    return _MEANINGS.get(code, f"unknown exit code {code}")
