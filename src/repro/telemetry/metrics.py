"""Process-local metrics registry: counters and histograms.

The observability counterpart of the event layer (:mod:`.events`): where
traces answer "what exactly happened, in order", metrics answer "how
much of it happened" at near-zero cost.  Instrumented call sites hold a
:class:`Counter`/:class:`Histogram` object directly (one attribute
access + integer add per update, no name lookup), so metrics stay cheap
enough to leave enabled everywhere — the pipeline, the fuzz harness and
the runtime supervisor all update the process-global registry
unconditionally.

Determinism contract: counters and histograms are driven exclusively by
simulated quantities (instruction counts, cycles, rollbacks), so their
snapshots are byte-comparable across runs and across ``--jobs`` fan-out.
Wall-clock time is never recorded here; per-layer wall-clock attribution
comes from ``benchmarks/e2e/run.py --trace``.

Workers roll metrics up per task by snapshotting around the task and
shipping :func:`MetricsRegistry.delta_since` across the process
boundary — see ``repro.experiments.runner`` (``--metrics``) and
``repro.fuzz.cli`` (``--metrics``).
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "registry",
    "merge_snapshots",
]


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Histogram:
    """Distribution summary: count/sum/min/max plus power-of-two buckets.

    Bucket ``i`` counts observations with ``value < 2**i`` (and at or
    above the previous bound); the layout is fixed so two histograms fed
    the same observations serialize identically.
    """

    __slots__ = ("name", "count", "total", "min", "max", "buckets")

    BUCKET_COUNT = 24  # up to 2**23 ≈ 8.4M cycles per observation

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0
        self.min: int | float | None = None
        self.max: int | float | None = None
        self.buckets = [0] * self.BUCKET_COUNT

    def observe(self, value: int | float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        bucket = 0
        if value >= 1:
            # The first i with value < 2**i is the bit length of
            # floor(value), capped at the last bucket.
            last = self.BUCKET_COUNT - 1
            bucket = last if value >= 1 << last else int(value).bit_length()
        self.buckets[bucket] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "buckets": list(self.buckets),
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name}: n={self.count}, mean={self.mean:.1f})"


class MetricsRegistry:
    """A namespace of metrics, snapshot-able and diff-able.

    Names are dotted (``pipeline.runs``, ``supervisor.retries``); the
    first component is the owning subsystem by convention
    (docs/observability.md lists every instrumented name).
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # Instrument acquisition (idempotent; call sites cache the object)
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        found = self._counters.get(name)
        if found is None:
            found = self._counters[name] = Counter(name)
        return found

    def histogram(self, name: str) -> Histogram:
        found = self._histograms.get(name)
        if found is None:
            found = self._histograms[name] = Histogram(name)
        return found

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """Serialize current values (sorted keys, JSON-safe)."""
        return {
            "counters": {
                name: c.value for name, c in sorted(self._counters.items()) if c.value
            },
            "histograms": {
                name: h.to_dict()
                for name, h in sorted(self._histograms.items())
                if h.count
            },
        }

    def delta_since(self, snapshot: dict[str, Any]) -> dict[str, Any]:
        """Difference of the current state against an earlier snapshot.

        The per-task rollup primitive: zero-valued counters and empty
        histograms are dropped so a task's delta names only what the
        task actually touched.

        Histogram deltas carry only ``count``/``sum``/``buckets``; the
        running ``min``/``max`` extremes cannot be differenced against a
        snapshot (they depend on what else the process executed before
        the window), so including them would make per-task deltas vary
        with worker scheduling and break the ``--jobs`` byte-identity
        contract.
        """
        base_counters = snapshot.get("counters", {})
        base_hists = snapshot.get("histograms", {})
        counters = {}
        for name, counter in sorted(self._counters.items()):
            diff = counter.value - base_counters.get(name, 0)
            if diff:
                counters[name] = diff
        histograms = {}
        for name, hist in sorted(self._histograms.items()):
            base = base_hists.get(name, {})
            count = hist.count - base.get("count", 0)
            if not count:
                continue
            histograms[name] = {
                "count": count,
                "sum": hist.total - base.get("sum", 0),
                "buckets": [
                    now - then
                    for now, then in zip(
                        hist.buckets, base.get("buckets", [0] * len(hist.buckets))
                    )
                ],
            }
        return {"counters": counters, "histograms": histograms}

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry(counters={len(self._counters)}, "
            f"histograms={len(self._histograms)})"
        )


#: The process-global registry every instrumented subsystem writes to.
_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-local default registry."""
    return _REGISTRY


def merge_snapshots(snapshots: list[dict[str, Any]]) -> dict[str, Any]:
    """Roll per-task metric deltas up into one campaign-level summary.

    Counters and histogram counts/sums add; histogram min/max combine
    when present (per-task deltas omit them, see
    :meth:`MetricsRegistry.delta_since`).  Used by the
    campaign manifest writer.
    """
    counters: dict[str, int] = {}
    histograms: dict[str, dict[str, Any]] = {}
    for snap in snapshots:
        for name, value in snap.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
        for name, hist in snap.get("histograms", {}).items():
            into = histograms.get(name)
            if into is None:
                histograms[name] = {
                    "count": hist["count"],
                    "sum": hist["sum"],
                    "min": hist.get("min"),
                    "max": hist.get("max"),
                    "buckets": list(hist.get("buckets", [])),
                }
                continue
            into["count"] += hist["count"]
            into["sum"] += hist["sum"]
            if hist.get("min") is not None and (
                into["min"] is None or hist["min"] < into["min"]
            ):
                into["min"] = hist["min"]
            if hist.get("max") is not None and (
                into["max"] is None or hist["max"] > into["max"]
            ):
                into["max"] = hist["max"]
            for index, value in enumerate(hist.get("buckets", [])):
                if index < len(into["buckets"]):
                    into["buckets"][index] += value
                else:
                    into["buckets"].append(value)
    for hist in histograms.values():
        if hist.get("min") is None:
            hist.pop("min", None)
        if hist.get("max") is None:
            hist.pop("max", None)
    return {
        "counters": dict(sorted(counters.items())),
        "histograms": dict(sorted(histograms.items())),
    }
