"""Test-only fault injection for the supervised runtime.

The pipeline already proves its fuzzing harness honest with
``CHAOS_HOOKS`` (:mod:`repro.fuzz.harness`); this module applies the
same discipline to the *execution layer*: a campaign that claims to
survive crashes, hangs and corrupt results must demonstrably do so.  A
plan is a comma-separated spec of ``fault@task`` tokens, armed via
``--chaos`` on either CLI or the ``REPRO_RUNTIME_CHAOS`` environment
variable:

* ``crash@KEY``   — the worker running task ``KEY`` dies with
  ``os._exit`` (the ``BrokenProcessPool`` failure mode);
* ``hang@KEY``    — the worker sleeps far past any sane deadline, so
  only a ``--timeout`` kill can reclaim it;
* ``corrupt@KEY`` — the worker returns a result that cannot pass schema
  validation (truncated-JSON equivalent at the result boundary);
* ``interrupt@KEY`` — the *supervisor* raises ``KeyboardInterrupt`` the
  moment task ``KEY`` completes, exercising graceful shutdown and
  checkpoint/resume without an external ``kill``.

``KEY`` is the task id: the experiment name for ``repro-experiments``
(``crash@fig4``), the task index for ``repro-fuzz`` (``crash@3``).
Every fault fires **once per campaign**: the first injection claims a
marker file in a shared state directory (atomic ``O_CREAT|O_EXCL``, so
respawned workers agree), and the retried attempt then succeeds — which
is exactly what lets chaos-tested campaigns converge to the same final
manifest as an uninterrupted run.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from pathlib import Path

from repro.errors import ConfigError

__all__ = ["FAULT_KINDS", "CHAOS_ENV_VAR", "ChaosPlan"]

FAULT_KINDS = ("crash", "hang", "corrupt", "interrupt")

#: Environment variable consulted by the resumable CLIs when ``--chaos`` is absent.
CHAOS_ENV_VAR = "REPRO_RUNTIME_CHAOS"

#: Exit code of a chaos-crashed worker (distinct from signal deaths).
CRASH_EXIT_CODE = 17

#: How long a chaos hang sleeps.  Long enough that only a ``--timeout``
#: kill plausibly ends it, short enough that arming ``hang@`` without a
#: deadline stalls a campaign rather than deadlocking it forever.
HANG_S = 600.0

#: Sentinel returned in place of the real result by ``corrupt@``; fails
#: any schema validation (it is not a result dict / findings list).
CORRUPT_RESULT = "\x00chaos:corrupt-result"


class ChaosPlan:
    """A parsed fault-injection spec plus its cross-process marker state."""

    def __init__(self, spec: str, state_dir: str | Path) -> None:
        self.spec = spec
        self.state_dir = str(state_dir)
        self.faults = self._parse(spec)

    @staticmethod
    def _parse(spec: str) -> tuple[tuple[str, str], ...]:
        faults: list[tuple[str, str]] = []
        for token in (part.strip() for part in spec.split(",")):
            if not token:
                continue
            kind, sep, key = token.partition("@")
            if not sep or not key or kind not in FAULT_KINDS:
                raise ConfigError(
                    f"bad chaos token {token!r}; expected fault@task with "
                    f"fault in {{{', '.join(FAULT_KINDS)}}}"
                )
            faults.append((kind, key))
        return tuple(faults)

    @classmethod
    def from_spec(cls, spec: str) -> "ChaosPlan":
        """Parse ``spec`` with a fresh private marker directory.

        The directory is per-campaign, so a ``--resume`` run with the
        same spec re-arms the faults — but only for tasks the checkpoint
        has not already completed, and retries absorb the re-injection.
        """
        plan = cls(spec, tempfile.mkdtemp(prefix="repro-chaos-"))
        if not plan.faults:
            raise ConfigError(f"chaos spec {spec!r} names no faults")
        return plan

    def cleanup(self) -> None:
        shutil.rmtree(self.state_dir, ignore_errors=True)

    def _claim(self, kind: str, key: str) -> bool:
        """Atomically claim one injection; True exactly once per fault."""
        marker = Path(self.state_dir) / f"{kind}@{key}.fired"
        try:
            marker.parent.mkdir(parents=True, exist_ok=True)
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        except OSError:
            return False
        os.close(fd)
        return True

    def _armed(self, kind: str, task_id: object) -> bool:
        return any(
            fault_kind == kind and key == str(task_id)
            for fault_kind, key in self.faults
        )

    # -- worker-side faults -------------------------------------------------

    def before_task(self, task_id: object) -> None:
        """Crash or hang the calling worker if this task is targeted."""
        if self._armed("crash", task_id) and self._claim("crash", str(task_id)):
            os._exit(CRASH_EXIT_CODE)
        if self._armed("hang", task_id) and self._claim("hang", str(task_id)):
            time.sleep(HANG_S)

    def after_task(self, task_id: object, result: object) -> object:
        """Replace the result with unparseable garbage if targeted."""
        if self._armed("corrupt", task_id) and self._claim("corrupt", str(task_id)):
            return CORRUPT_RESULT
        return result

    # -- supervisor-side fault ----------------------------------------------

    def wants_interrupt(self, task_id: object) -> bool:
        """True once when the supervisor should fake a Ctrl-C after ``task_id``."""
        return self._armed("interrupt", task_id) and self._claim(
            "interrupt", str(task_id)
        )
