"""Trace exporters: Chrome trace-event JSON and plain-text timelines.

``to_chrome_trace`` produces the Trace Event Format that both
``chrome://tracing`` and Perfetto (https://ui.perfetto.dev) open
directly: complete ("X") slices for instruction lifetimes and STLD
windows, instant ("i") markers for squash/restore/fault edges, and
counter ("C") tracks for live predictor counters.  Simulated cycles map
1:1 onto microseconds — the timeline ruler reads as cycles.

``to_timeline`` renders the same trace as an aligned per-instruction
text table for terminals and diffs in bug reports.
"""

from __future__ import annotations

from typing import Any

__all__ = ["to_chrome_trace", "to_timeline", "summarize_events"]

#: Events that mark a point in time rather than a span.
_INSTANT_KINDS = {"squash", "restore", "fault", "branch-predict", "branch-resolve"}


def _pid_tid(event: dict[str, Any]) -> tuple[int, int]:
    # One Perfetto "process" per simulation; one row per hardware thread.
    return 0, event.get("thread", 0)


def to_chrome_trace(header: dict[str, Any], events: list[dict[str, Any]]) -> dict[str, Any]:
    """Convert a recorded trace to a Chrome trace-event JSON object."""
    out: list[dict[str, Any]] = []
    threads = sorted({event.get("thread", 0) for event in events})
    for thread in threads:
        out.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": thread,
                "args": {"name": f"hw-thread {thread}"},
            }
        )

    # Pair dispatch -> commit per (thread, index) occurrence to build
    # instruction slices; unpaired dispatches (squashed wrong-path work)
    # become zero-length transient slices.
    open_dispatch: dict[tuple[int, int], dict[str, Any]] = {}
    for event in events:
        kind = event["kind"]
        pid, tid = _pid_tid(event)
        cycle = event.get("cycle", 0)
        if kind == "dispatch":
            key = (tid, event["index"])
            open_dispatch[key] = event
            continue
        if kind == "commit":
            key = (tid, event["index"])
            started = open_dispatch.pop(key, None)
            begin = started.get("cycle", cycle) if started else cycle
            out.append(
                {
                    "name": f"[{event['index']}] {event['op']}",
                    "cat": "instruction",
                    "ph": "X",
                    "pid": pid,
                    "tid": tid,
                    "ts": begin,
                    "dur": max(cycle - begin, 1),
                    "args": {"index": event["index"], "retired": event["retired"]},
                }
            )
            continue
        if kind == "predictor-transition":
            base = {"pid": pid, "tid": tid, "ts": cycle, "ph": "C"}
            counters = event.get("counters_after", [])
            out.append(
                {
                    **base,
                    "name": f"psfp c0-c2 t{tid}",
                    "args": {f"c{i}": v for i, v in enumerate(counters[:3])},
                }
            )
            out.append(
                {
                    **base,
                    "name": f"ssbp c3-c4 t{tid}",
                    "args": {f"c{i + 3}": v for i, v in enumerate(counters[3:])},
                }
            )
            out.append(
                {
                    "name": f"{event['exec_type']}: {event['state_before']}"
                    f" -> {event['state_after']}",
                    "cat": "predictor",
                    "ph": "i",
                    "s": "t",
                    "pid": pid,
                    "tid": tid,
                    "ts": cycle,
                    "args": {
                        "store_hash": event["store_hash"],
                        "load_hash": event["load_hash"],
                        "aliasing": event["aliasing"],
                    },
                }
            )
            continue
        if kind in _INSTANT_KINDS:
            args = {
                k: v
                for k, v in event.items()
                if k not in ("kind", "seq", "cycle", "thread")
            }
            out.append(
                {
                    "name": kind,
                    "cat": "pipeline",
                    "ph": "i",
                    "s": "t",
                    "pid": pid,
                    "tid": tid,
                    "ts": cycle,
                    "args": args,
                }
            )
            continue
        # STLD speculation outcomes: short slices from predict to complete
        # are more readable than instants; we only know the completion
        # cycle, so render a point slice carrying the payload.
        args = {
            k: v for k, v in event.items() if k not in ("kind", "seq", "cycle", "thread")
        }
        out.append(
            {
                "name": kind,
                "cat": "stld",
                "ph": "X",
                "pid": pid,
                "tid": tid,
                "ts": cycle,
                "dur": 1,
                "args": args,
            }
        )
    # Leftover dispatches never committed: squashed wrong-path work.
    for (tid, index), event in sorted(open_dispatch.items()):
        out.append(
            {
                "name": f"[{index}] {event['op']} (squashed)",
                "cat": "transient",
                "ph": "X",
                "pid": 0,
                "tid": tid,
                "ts": event.get("cycle", 0),
                "dur": 1,
                "args": {"index": index},
            }
        )
    return {
        "traceEvents": out,
        "displayTimeUnit": "ms",
        "otherData": {k: v for k, v in header.items() if k != "kind"},
    }


def to_timeline(header: dict[str, Any], events: list[dict[str, Any]]) -> str:
    """Render a trace as an aligned plain-text per-event timeline."""
    lines = []
    context = ", ".join(
        f"{key}={value}"
        for key, value in sorted(header.items())
        if key not in ("kind", "schema")
    )
    lines.append(f"# trace schema {header.get('schema')}" + (f" ({context})" if context else ""))
    lines.append(f"{'SEQ':>6} {'CYCLE':>8} {'T':>2} {'KIND':<20} DETAIL")
    for event in events:
        detail = ", ".join(
            f"{key}={value}"
            for key, value in event.items()
            if key not in ("seq", "cycle", "thread", "kind")
        )
        lines.append(
            f"{event.get('seq', 0):>6} {event.get('cycle', 0):>8} "
            f"{event.get('thread', 0):>2} {event['kind']:<20} {detail}"
        )
    return "\n".join(lines) + "\n"


def summarize_events(events: list[dict[str, Any]]) -> dict[str, Any]:
    """Rollup used by ``repro-trace summarize``: counts per kind plus the
    headline speculation facts a triager wants first."""
    kinds: dict[str, int] = {}
    exec_types: dict[str, int] = {}
    squashes: dict[str, int] = {}
    transitions: dict[str, int] = {}
    for event in events:
        kind = event["kind"]
        kinds[kind] = kinds.get(kind, 0) + 1
        if kind == "predictor-transition":
            exec_types[event["exec_type"]] = exec_types.get(event["exec_type"], 0) + 1
            edge = f"{event['state_before']} -> {event['state_after']}"
            transitions[edge] = transitions.get(edge, 0) + 1
        elif kind == "squash":
            squashes[event["reason"]] = squashes.get(event["reason"], 0) + 1
    last = events[-1] if events else None
    return {
        "events": sum(kinds.values()),
        "kinds": dict(sorted(kinds.items())),
        "exec_types": dict(sorted(exec_types.items())),
        "squashes": dict(sorted(squashes.items())),
        "table1_edges": dict(sorted(transitions.items())),
        "last_cycle": last.get("cycle", 0) if last else 0,
    }

