"""Shared CLI plumbing for the repro console scripts.

The five repro console scripts present one surface: the same
``--version`` string, the same ``--help`` epilog stating the exit-code
contract (:mod:`repro.runtime.exitcodes`), and the same formatter so the
epilog's table survives argparse's re-wrapping.  Build parsers through
:func:`build_parser` instead of calling ``argparse.ArgumentParser``
directly so the tools cannot drift.
"""

from __future__ import annotations

import argparse

from repro.errors import ConfigError
from repro.runtime.exitcodes import (
    EXIT_FAILURES,
    EXIT_INTERRUPTED,
    EXIT_OK,
    EXIT_USAGE,
    describe,
)

__all__ = [
    "EXIT_CODE_EPILOG",
    "build_parser",
    "require_range",
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
