"""Trace sinks: where emitted events go.

A :class:`Tracer` wraps one sink: it builds each event's wire dict from
the call site's keyword arguments (the fields named in
:data:`~repro.telemetry.events.EVENT_FIELDS`) and assigns the per-trace
monotonic ``seq`` number.  The pipeline holds at most one tracer
reference (``Pipeline.trace``); when no tracer is active the reference
is ``None`` and instrumented call sites skip the ``emit`` call entirely —
that is the zero-overhead-when-disabled contract (no dicts built, no
sink dispatch, one ``is not None`` test per site).

Two sinks ship:

* :class:`RingBufferSink` — bounded in-memory deque; the flight recorder
  used by tests and by the tracing-overhead guard
  (:mod:`repro.telemetry.overhead`).
* :class:`JsonlSink` — the sink behind ``repro-trace record`` and
  ``repro-fuzz --trace-findings``; buffers serialized lines and writes
  the whole trace atomically on close (one fsync'd rename, see
  ``repro.runtime.atomic``), so concurrent workers can record traces
  into a shared directory without torn files.  Line 1 is a header
  carrying the schema version and recording context; every subsequent
  line is one event.  Serialization is canonical (sorted keys, compact
  separators) so identical event streams give byte-identical files.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from typing import Any, Protocol

from ..runtime.atomic import atomic_write_text, canonical
from .events import TRACE_SCHEMA

__all__ = [
    "TraceSink",
    "Tracer",
    "RingBufferSink",
    "JsonlSink",
    "read_trace",
    "trace_header",
]


class TraceSink(Protocol):
    """Anything that can accept trace events as wire dicts."""

    def emit(self, event: dict[str, Any]) -> None:
        """Accept one event's wire dict (it already carries seq)."""

    def close(self) -> None:
        """Flush/finalize.  Must be idempotent."""


def trace_header(**context: Any) -> dict[str, Any]:
    """The first line of every persisted trace.

    ``context`` carries recording provenance (target, seed, mitigation,
    cpu model); only deterministic values belong here — no wall times,
    no pids — so recorded traces stay byte-comparable.
    """
    header = {"schema": TRACE_SCHEMA, "kind": "trace-header"}
    header.update(context)
    return header


class Tracer:
    """Assigns sequence numbers and forwards events to a sink."""

    __slots__ = ("sink", "seq", "events_emitted")

    def __init__(self, sink: TraceSink) -> None:
        self.sink = sink
        self.seq = 0
        self.events_emitted = 0

    def emit(self, kind: str, cycle: int, thread: int, **fields: Any) -> None:
        """Build one event's wire dict and hand it to the sink.

        ``fields`` are the kind's payload (``EVENT_FIELDS[kind]``), in
        order; the key order is ``cycle, thread, kind, ...fields, seq``.
        """
        data = {"cycle": cycle, "thread": thread, "kind": kind, **fields, "seq": self.seq}
        self.seq += 1
        self.events_emitted += 1
        self.sink.emit(data)

    def close(self) -> None:
        self.sink.close()


class RingBufferSink:
    """Keep the last ``capacity`` events in memory (flight recorder)."""

    def __init__(self, capacity: int = 65536) -> None:
        self.capacity = capacity
        self._events: deque[dict[str, Any]] = deque(maxlen=capacity)
        self.dropped = 0

    def emit(self, event: dict[str, Any]) -> None:
        if len(self._events) == self.capacity:
            self.dropped += 1
        self._events.append(event)

    def close(self) -> None:
        pass

    def events(self) -> list[dict[str, Any]]:
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)


class JsonlSink:
    """Buffer events and atomically write a JSONL trace file on close."""

    def __init__(self, path: str | Path, header: dict[str, Any] | None = None) -> None:
        self.path = Path(path)
        self._lines: list[str] = [canonical(header or trace_header())]
        self._closed = False

    def emit(self, event: dict[str, Any]) -> None:
        self._lines.append(canonical(event))

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(self.path, "\n".join(self._lines) + "\n")

    def __len__(self) -> int:
        return len(self._lines) - 1  # header excluded


def read_trace(path: str | Path) -> tuple[dict[str, Any], list[dict[str, Any]]]:
    """Load a JSONL trace: ``(header, events)`` as raw dicts.

    Raises ``ValueError`` on schema mismatch or structural damage so
    callers (diff, export) fail loudly rather than comparing garbage.
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ValueError(f"{path}: empty trace file")
    header = json.loads(lines[0])
    if header.get("kind") != "trace-header":
        raise ValueError(f"{path}: missing trace header line")
    schema = header.get("schema")
    if schema != TRACE_SCHEMA:
        raise ValueError(
            f"{path}: trace schema {schema} not supported (expected {TRACE_SCHEMA})"
        )
    events = [json.loads(line) for line in lines[1:] if line]
    return header, events

