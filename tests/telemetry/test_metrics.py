"""Metrics registry: counters, histograms, snapshots, deltas, merging."""

import pytest

from repro.telemetry.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    merge_snapshots,
    registry,
)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        counter = Counter("x")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5


class TestHistogram:
    def test_observe_and_mean(self):
        hist = Histogram("h")
        for value in (1, 2, 3):
            hist.observe(value)
        assert hist.count == 3
        assert hist.total == 6
        assert hist.mean == 2.0
        assert hist.min == 1 and hist.max == 3

    def test_power_of_two_bucketing(self):
        hist = Histogram("h")
        hist.observe(1)    # bucket 1
        hist.observe(100)  # bucket 7 (64..127)
        assert sum(hist.buckets) == 2


class TestRegistry:
    def test_acquisition_is_idempotent(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("h") is reg.histogram("h")

    def test_snapshot_drops_zero_entries(self):
        reg = MetricsRegistry()
        reg.counter("touched").inc()
        reg.counter("untouched")
        snap = reg.snapshot()
        assert snap["counters"] == {"touched": 1}

    def test_delta_since_names_only_window_activity(self):
        reg = MetricsRegistry()
        reg.counter("before").inc(3)
        snap = reg.snapshot()
        reg.counter("during").inc(2)
        reg.counter("before").inc()
        delta = reg.delta_since(snap)
        assert delta["counters"] == {"before": 1, "during": 2}

    def test_histogram_delta_has_no_extremes(self):
        # min/max are running extremes of the whole process and cannot be
        # differenced, so per-task deltas must omit them (determinism
        # across worker layouts).
        reg = MetricsRegistry()
        reg.histogram("h").observe(1000)
        snap = reg.snapshot()
        reg.histogram("h").observe(4)
        delta = reg.delta_since(snap)
        hist = delta["histograms"]["h"]
        assert hist["count"] == 1 and hist["sum"] == 4
        assert "min" not in hist and "max" not in hist

    def test_global_registry_is_a_singleton(self):
        assert registry() is registry()


class TestMergeSnapshots:
    def test_counters_add(self):
        merged = merge_snapshots(
            [{"counters": {"a": 1}}, {"counters": {"a": 2, "b": 5}}]
        )
        assert merged["counters"] == {"a": 3, "b": 5}

    def test_histograms_combine(self):
        left = {"histograms": {"h": {"count": 2, "sum": 10, "buckets": [1, 1]}}}
        right = {"histograms": {"h": {"count": 1, "sum": 4, "buckets": [0, 1]}}}
        merged = merge_snapshots([left, right])
        hist = merged["histograms"]["h"]
        assert hist["count"] == 3 and hist["sum"] == 14
        assert hist["buckets"] == [1, 2]
        # Inputs without extremes (per-task deltas) merge without them.
        assert "min" not in hist and "max" not in hist

    def test_empty_merge(self):
        assert merge_snapshots([]) == {"counters": {}, "histograms": {}}
