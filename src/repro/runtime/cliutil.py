"""The front end of the repro console scripts.

The five repro console scripts present one surface: the same
``--version`` string, the same ``--help`` epilog stating the exit-code
contract (:mod:`repro.runtime.exitcodes`), and the same formatter so the
epilog's table survives argparse's re-wrapping.  Build parsers through
:func:`build_parser` instead of calling ``argparse.ArgumentParser``
directly so the tools cannot drift.  The campaigns declare their shared
flags through :func:`add_supervision_flags` and :func:`add_resume_flags`,
and :func:`console_main` is the one place exceptions become exit codes.
"""

from __future__ import annotations

import argparse
import functools
import os
import shlex
import sys
from typing import Any, Callable

from repro.errors import CampaignInterrupted, ConfigError, ReproError
from repro.runtime.chaos import CHAOS_ENV_VAR
from repro.runtime.exitcodes import (
    EXIT_FAILURES,
    EXIT_INTERRUPTED,
    EXIT_OK,
    EXIT_USAGE,
    describe,
)
from repro.runtime.supervisor import DEFAULT_RETRIES

__all__ = [
    "EXIT_CODE_EPILOG",
    "add_resume_flags",
    "add_supervision_flags",
    "build_parser",
    "console_main",
    "print_progress",
    "require_range",
    "supervision",
    "version_string",
]

#: The epilog every repro CLI appends to ``--help``.
EXIT_CODE_EPILOG = "\n".join(
    ["exit codes:"]
    + [
        f"  {code}  {describe(code)}"
        for code in (EXIT_OK, EXIT_FAILURES, EXIT_USAGE, EXIT_INTERRUPTED)
    ]
)


def version_string(prog: str) -> str:
    from repro import __version__

    return f"{prog} (repro) {__version__}"


def require_range(
    name: str,
    value: float | int,
    minimum: float | int | None = None,
    maximum: float | int | None = None,
) -> float | int:
    """Validate a numeric CLI argument up front; returns it unchanged.

    Raises :class:`repro.errors.ConfigError` — which every repro CLI
    maps to the usage exit code (2) — naming the flag and the accepted
    range, so a bad ``--width 99`` fails before any machine is built
    instead of surfacing as a deep traceback or a silently-clamped run.
    """
    if (minimum is not None and value < minimum) or (
        maximum is not None and value > maximum
    ):
        if minimum is not None and maximum is not None:
            span = f"in {minimum}..{maximum}"
        elif minimum is not None:
            span = f">= {minimum}"
        else:
            span = f"<= {maximum}"
        raise ConfigError(f"{name} must be {span}, got {value!r}")
    return value


def build_parser(
    prog: str,
    description: str,
    epilog: str | None = None,
) -> argparse.ArgumentParser:
    """An ``ArgumentParser`` with the shared ``--version`` and epilog.

    ``epilog`` (if given) is tool-specific text placed *above* the common
    exit-code table.
    """
    parts = [text for text in (epilog, EXIT_CODE_EPILOG) if text]
    parser = argparse.ArgumentParser(
        prog=prog,
        description=description,
        epilog="\n\n".join(parts),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--version", action="version", version=version_string(prog)
    )
    return parser


def add_supervision_flags(parser: argparse.ArgumentParser) -> None:
    """``--jobs/-j``, ``--timeout`` and ``--retries``: every campaign's pool."""
    parser.add_argument(
        "--jobs", "-j", type=int, default=1, metavar="N",
        help="worker processes (default 1 = serial; output is identical)",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-task deadline; a hung worker is killed and retried",
    )
    parser.add_argument(
        "--retries", type=int, default=DEFAULT_RETRIES, metavar="N",
        help=f"retry budget per task after a crash/timeout/error "
             f"(default {DEFAULT_RETRIES}, deterministic backoff)",
    )


def supervision(args: argparse.Namespace) -> dict[str, Any]:
    """:func:`add_supervision_flags`' values as ``run_supervised`` keywords."""
    return {"jobs": max(1, args.jobs), "timeout": args.timeout,
            "retries": max(0, args.retries)}


def add_resume_flags(parser: argparse.ArgumentParser) -> None:
    """``--resume``, ``--chaos`` and ``--metrics``: the journaled campaigns' flags."""
    parser.add_argument(
        "--resume", action="store_true",
        help="replay the tasks an interrupted run completed from its "
             "checkpoint journal (after a crash or Ctrl-C)",
    )
    parser.add_argument(
        "--chaos", default=os.environ.get(CHAOS_ENV_VAR), metavar="SPEC",
        help="self-test: inject runtime faults by task id (experiment name or "
             "task number), e.g. 'crash@T,hang@T,corrupt@T,interrupt@T' "
             f"(default from ${CHAOS_ENV_VAR})",
    )
    parser.add_argument(
        "--metrics", action="store_true",
        help="attach each task's deterministic telemetry-counter delta to "
             "its results and report the campaign rollup",
    )


def print_progress(line: str) -> None:
    """The campaigns' progress stream: one indented line on stderr."""
    print(f"  .. {line}", file=sys.stderr)


#: A console script's entry point: ``main(argv) -> exit code``.
Main = Callable[[list[str] | None], int]


def console_main(
    prog: str, *, usage: tuple[type[Exception], ...] = ()
) -> Callable[[Main], Main]:
    """Decorate a console script's ``main(argv)`` with the exit-code table.

    A :class:`~repro.errors.ConfigError` (or one of ``usage``, the file
    errors of a tool whose arguments name input files) exits 2, an
    interrupt exits 3, and any other :class:`~repro.errors.ReproError`
    exits 1, each reported as ``prog: message`` on stderr.
    """

    def wrap(main: Main) -> Main:
        @functools.wraps(main)
        def run(argv: list[str] | None = None) -> int:
            try:
                return main(argv)
            except (ConfigError, *usage) as exc:
                print(f"{prog}: {exc}", file=sys.stderr)
                return EXIT_USAGE
            except (CampaignInterrupted, KeyboardInterrupt) as exc:
                _report_interrupt(prog, exc, sys.argv[1:] if argv is None else argv)
                return EXIT_INTERRUPTED
            except ReproError as exc:
                print(f"{prog}: {exc}", file=sys.stderr)
                return EXIT_FAILURES

        return run

    return wrap


def _report_interrupt(prog: str, exc: BaseException, argv: list[str]) -> None:
    """The one interrupt message: how to resume, or that nothing was saved."""
    print(f"{prog}: {str(exc) or 'interrupted'}", file=sys.stderr)
    checkpoint = getattr(exc, "checkpoint", None)
    if checkpoint is None:
        print(f"{prog}: no checkpoint was written", file=sys.stderr)
    else:
        again = [prog, *argv] + ([] if "--resume" in argv else ["--resume"])
        print(f"{prog}: checkpoint written to {checkpoint}; "
              f"continue with: {shlex.join(again)}", file=sys.stderr)
