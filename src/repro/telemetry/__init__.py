"""Microarchitectural telemetry: event tracing, metrics, exporters.

The observability substrate for the simulator (docs/observability.md).
Three layers:

* **Events** (:mod:`.events`, :mod:`.sinks`) — typed, zero-overhead-
  when-disabled trace events emitted by ``repro.cpu.pipeline.Pipeline``
  (dispatch, branch predict/resolve, STLD predict/forward/stall/bypass,
  squash/restore, fault, commit) and by the PSFP/SSBP predictor unit
  (TABLE I state transitions, observed live).
* **Metrics** (:mod:`.metrics`) — process-local counters and
  histograms instrumenting the pipeline, fuzz harness and runtime
  supervisor; rolled up per task into campaign manifests and findings.
* **Tools** (:mod:`.export`, :mod:`.diff`, :mod:`.record`, :mod:`.cli`)
  — Chrome trace-event/Perfetto export, plain-text timelines,
  first-divergence diffing, and the ``repro-trace`` console script.

Recording is opt-in via an explicit tracer activation::

    from repro import telemetry

    with telemetry.recording(telemetry.RingBufferSink()) as tracer:
        machine.run()            # pipelines created here emit events

When nothing is recording, ``current_tracer()`` is ``None`` and every
instrumented site reduces to one ``is not None`` test — no event
objects are built, no sink is touched.  ``make trace-smoke`` holds both
halves of that contract (byte-identical traces across ``--jobs``,
bounded overhead with telemetry off).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from .events import (
    TRACE_SCHEMA,
    BranchPredictEvent,
    BranchResolveEvent,
    CommitEvent,
    DispatchEvent,
    FaultEvent,
    PredictorTransitionEvent,
    RestoreEvent,
    SquashEvent,
    StldBypassEvent,
    StldForwardEvent,
    StldPredictEvent,
    StldStallEvent,
    TraceEvent,
    event_from_dict,
)
from .metrics import MetricsRegistry, merge_snapshots, registry
from .sinks import JsonlSink, RingBufferSink, Tracer, TraceSink, read_trace, trace_header

__all__ = [
    "TRACE_SCHEMA",
    "TraceEvent",
    "DispatchEvent",
    "CommitEvent",
    "BranchPredictEvent",
    "BranchResolveEvent",
    "StldPredictEvent",
    "StldForwardEvent",
    "StldStallEvent",
    "StldBypassEvent",
    "SquashEvent",
    "RestoreEvent",
    "FaultEvent",
    "PredictorTransitionEvent",
    "event_from_dict",
    "TraceSink",
    "Tracer",
    "RingBufferSink",
    "JsonlSink",
    "read_trace",
    "trace_header",
    "MetricsRegistry",
    "registry",
    "merge_snapshots",
    "activate",
    "deactivate",
    "current_tracer",
    "recording",
]

#: The process-global active tracer (None = telemetry disabled).
_ACTIVE: Tracer | None = None


def activate(sink: TraceSink) -> Tracer:
    """Install a tracer over ``sink``; newly created pipelines pick it up.

    Raises if a tracer is already active — nested recordings would
    interleave two experiments into one seq-space and corrupt diffs.
    """
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError("a tracer is already active; deactivate() it first")
    _ACTIVE = Tracer(sink)
    return _ACTIVE


def deactivate() -> None:
    """Close and remove the active tracer (no-op when none is active)."""
    global _ACTIVE
    if _ACTIVE is not None:
        _ACTIVE.close()
        _ACTIVE = None


def current_tracer() -> Tracer | None:
    """The active tracer, or ``None`` when telemetry is disabled."""
    return _ACTIVE


@contextmanager
def recording(sink: TraceSink) -> Iterator[Tracer]:
    """Scope a recording: activate on entry, close/deactivate on exit."""
    tracer = activate(sink)
    try:
        yield tracer
    finally:
        deactivate()
