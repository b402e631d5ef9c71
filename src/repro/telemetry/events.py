"""The trace wire format: event kinds and their payload fields.

Every event is a plain dict, built by :meth:`~repro.telemetry.sinks.Tracer.emit`
straight from the instrumented call site's keyword arguments:

    {"cycle": C, "thread": T, "kind": "...", ...payload, "seq": N}

``seq`` is a per-trace monotonic sequence number assigned by the
tracer; ``cycle`` is the simulated pipeline cycle at emission.  Both are
fully deterministic, which is what makes byte-identical traces across
``--jobs`` and first-divergence diffing (:mod:`repro.telemetry.diff`)
possible.

:data:`EVENT_FIELDS` is the one place the kinds and their payload fields
are named (a conformance test holds every emitter to it).  Schema
changes bump :data:`TRACE_SCHEMA`; readers refuse newer schemas.
docs/observability.md documents every kind and field.
"""

from __future__ import annotations

__all__ = ["TRACE_SCHEMA", "EVENT_FIELDS"]

#: Bump when an event gains/loses/renames fields.
TRACE_SCHEMA = 1

#: kind -> payload fields, in emission order (the envelope ``cycle``,
#: ``thread``, ``kind`` and ``seq`` are common to every kind).
EVENT_FIELDS: dict[str, tuple[str, ...]] = {
    # An instruction entered the execution window.
    "dispatch": ("index", "op"),
    # An instruction retired architecturally.
    "commit": ("index", "op", "retired"),
    # Direction prediction at branch dispatch (2-bit counter read).
    "branch-predict": ("index", "iva", "predicted_taken"),
    # Branch outcome known; mispredicts open a transient window.
    "branch-resolve": ("index", "iva", "taken", "mispredicted"),
    # STLD predictor consulted for a load with an older in-flight store:
    # ``covers`` is the ground truth (store range covers the load),
    # ``aliasing``/``psf_forward`` the PSFP/SSBP outputs that pick the
    # forward / stall / bypass path.
    "stld-predict": (
        "index", "store_ipa", "load_ipa", "aliasing", "psf_forward", "sticky", "covers",
    ),
    # PSF forwarded store data to a dependent load speculatively.
    "stld-forward": ("index", "value", "correct"),
    # Load stalled until older store addresses resolved (predict-alias).
    "stld-stall": ("index", "ready_cycle"),
    # Load speculatively bypassed older stores and read memory (SSB).
    "stld-bypass": ("index", "value", "correct"),
    # A transient window closed with a flush; reason is branch|fault|memory.
    "squash": ("reason", "from_index", "penalty"),
    # Architectural state restored after a squash; refetch resumes.
    "restore": ("index", "retired"),
    # A load faulted; transient successors execute until the window stops.
    "fault": ("index", "vaddr", "window_stop"),
    # A PSFP/SSBP access moved the TABLE I counter state machine: state
    # names, live (c0..c4) counter lists and the A-H execution type.
    # Replaying these reproduces the TABLE I edge list.
    "predictor-transition": (
        "store_hash", "load_hash", "aliasing", "exec_type",
        "state_before", "state_after", "counters_before", "counters_after",
    ),
}
