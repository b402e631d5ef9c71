"""Microarchitectural telemetry: event tracing, metrics, exporters.

The observability substrate for the simulator (docs/observability.md).
Three layers:

* **Events** (:mod:`.events`, :mod:`.sinks`) — zero-overhead-when-
  disabled trace events, plain dicts whose kinds and fields
  :data:`~.events.EVENT_FIELDS` names, emitted by
  ``repro.cpu.pipeline.Pipeline`` (dispatch, branch predict/resolve,
  STLD predict/forward/stall/bypass, squash/restore, fault, commit) and
  by the PSFP/SSBP predictor unit (TABLE I state transitions, observed
  live).
* **Metrics** (:mod:`.metrics`) — process-local counters and
  histograms instrumenting the pipeline, fuzz harness and runtime
  supervisor; rolled up per task into campaign manifests and findings.
* **Tools** (:mod:`.export`, :mod:`.diff`, :mod:`.record`, :mod:`.cli`)
  — Chrome trace-event/Perfetto export, plain-text timelines,
  first-divergence diffing, and the ``repro-trace`` console script.

Recording is opt-in via an explicit tracer activation::

    from repro import telemetry
    from repro.telemetry.sinks import RingBufferSink

    with telemetry.recording(RingBufferSink()) as tracer:
        machine.run()            # pipelines created here emit events

When nothing is recording, ``current_tracer()`` is ``None`` and every
instrumented site reduces to one ``is not None`` test — no event
dicts are built, no sink is touched.  ``make trace-smoke`` holds both
halves of that contract (byte-identical traces across ``--jobs``,
bounded overhead with telemetry off).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from .sinks import Tracer, TraceSink

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
