"""The supervised pool: deadlines, retries, crash isolation, drains.

Worker callables live at module level because pool mode ships them to
subprocesses.  Cross-attempt state (fail once, then succeed) goes
through marker files, since retried attempts may run in fresh processes.
"""

import signal
import threading
import time
from pathlib import Path

import pytest

from repro.errors import ConfigError
from repro.runtime.chaos import CORRUPT_RESULT, ChaosPlan
from repro.runtime.supervisor import (
    MAX_BATCH,
    TaskFailure,
    adaptive_batch,
    backoff_schedule,
    run_supervised,
)
from repro.telemetry.metrics import registry


def _double(payload):
    return payload * 2


def _boom(payload):
    raise ValueError(f"boom on {payload}")


def _flaky(payload):
    """Fails until its marker file exists, then succeeds."""
    marker = Path(payload["marker"])
    if not marker.exists():
        marker.write_text("tried")
        raise ValueError("first attempt fails")
    return "recovered"


def _sleeper(payload):
    time.sleep(payload["sleep"])
    return "done"


def _interrupting(payload):
    raise KeyboardInterrupt


def _slow_once(payload):
    """Sleeps past the deadline on its first attempt, then returns."""
    marker = Path(payload["marker"])
    if marker.name != "-" and not marker.exists():
        marker.write_text("slept")
        time.sleep(30.0)
    return "done"


class TestBackoffSchedule:
    def test_deterministic_capped_exponential(self):
        assert backoff_schedule(4, base=0.1, cap=0.5) == (0.1, 0.2, 0.4, 0.5)
        assert backoff_schedule(4, base=0.1, cap=0.5) == backoff_schedule(
            4, base=0.1, cap=0.5
        )

    def test_zero_retries_empty(self):
        assert backoff_schedule(0) == ()


class TestInline:
    def test_results_and_order_independent_ids(self):
        report = run_supervised([(5, 1), (9, 2)], _double, jobs=1)
        assert report.results == {5: 2, 9: 4}
        assert report.failures == [] and not report.interrupted

    def test_retry_then_success(self, tmp_path):
        payload = {"marker": str(tmp_path / "m")}
        report = run_supervised([("t", payload)], _flaky, jobs=1, retries=2)
        assert report.results == {"t": "recovered"}
        assert report.retried == 1

    def test_exhausted_retries_become_structured_failure(self):
        events = []
        report = run_supervised(
            [("bad", 0)], _boom, jobs=1, retries=1, progress=events.append
        )
        assert report.results == {}
        (failure,) = report.failures
        assert failure == TaskFailure("bad", "error", 2, "ValueError: boom on 0")
        assert any("failed" in line for line in events)

    def test_validation_error_is_invalid_result_kind(self):
        def validate(value):
            raise KeyError("schema")

        report = run_supervised([(0, 1)], _double, jobs=1, retries=0,
                                validate=validate)
        assert report.failures[0].kind == "invalid-result"

    def test_keyboard_interrupt_stops_and_flags(self):
        seen = []
        report = run_supervised(
            [(0, 1), (1, 2), (2, 3)], _interrupting, jobs=1,
            on_result=lambda tid, val: seen.append(tid),
        )
        assert report.interrupted is True
        assert seen == []

    def test_on_result_streams_completions(self):
        seen = []
        run_supervised([(0, 1), (1, 2)], _double, jobs=1,
                       on_result=lambda tid, val: seen.append((tid, val)))
        assert seen == [(0, 2), (1, 4)]


class TestPool:
    def test_parallel_results_complete(self):
        tasks = [(i, i) for i in range(6)]
        report = run_supervised(tasks, _double, jobs=3)
        assert report.results == {i: 2 * i for i in range(6)}

    def test_hang_is_killed_at_deadline_and_failed(self):
        report = run_supervised(
            [(0, {"sleep": 30.0})], _sleeper, jobs=1, timeout=0.5, retries=0
        )
        (failure,) = report.failures
        assert failure.kind == "timeout"
        assert "deadline" in failure.message

    def test_hang_retry_can_succeed(self, tmp_path):
        # first attempt fails fast, second succeeds: proves the respawned
        # worker picks the retry up (marker crosses the process boundary).
        payload = {"marker": str(tmp_path / "m")}
        report = run_supervised([("t", payload)], _flaky, jobs=2, timeout=5.0,
                                retries=2)
        assert report.results == {"t": "recovered"}

    def test_chaos_crash_is_survived(self):
        plan = ChaosPlan.from_spec("crash@1")
        try:
            report = run_supervised(
                [(0, 10), (1, 11), (2, 12)], _double, jobs=2, retries=2,
                chaos=plan,
            )
        finally:
            plan.cleanup()
        assert report.results == {0: 20, 1: 22, 2: 24}
        assert report.retried >= 1 and report.failures == []

    def test_chaos_crash_without_retries_is_structured_failure(self):
        plan = ChaosPlan.from_spec("crash@0")
        try:
            report = run_supervised([(0, 10), (1, 11)], _double, jobs=2,
                                    retries=0, chaos=plan)
        finally:
            plan.cleanup()
        assert report.results == {1: 22}
        (failure,) = report.failures
        assert failure.task == 0 and failure.kind == "crash"

    def test_chaos_corrupt_result_retried_to_success(self):
        def validate(value):
            if value == CORRUPT_RESULT:
                raise ValueError("unparseable result")
            return value

        plan = ChaosPlan.from_spec("corrupt@0")
        try:
            report = run_supervised([(0, 21)], _double, jobs=1, retries=1,
                                    chaos=plan, validate=validate)
        finally:
            plan.cleanup()
        assert report.results == {0: 42}
        assert report.retried == 1

    def test_chaos_interrupt_flags_report_and_skips_pending(self):
        plan = ChaosPlan.from_spec("interrupt@0")
        try:
            report = run_supervised([(0, 1), (1, 2)], _double, jobs=1,
                                    chaos=plan, grace_s=0.5)
        finally:
            plan.cleanup()
        assert report.interrupted is True
        assert 0 in report.results

    def test_sigterm_drains_and_interrupts(self):
        timer = threading.Timer(0.6, signal.raise_signal, args=(signal.SIGTERM,))
        timer.start()
        try:
            # timeout forces pool mode, where SIGTERM is delivered as an
            # interrupt; it is far longer than the test needs.
            report = run_supervised(
                [(0, {"sleep": 30.0})], _sleeper, jobs=1, timeout=60.0,
                retries=0, grace_s=0.3,
            )
        finally:
            timer.cancel()
        assert report.interrupted is True
        assert report.results == {}


class TestCounters:
    @staticmethod
    def _deltas(jobs):
        before = registry().snapshot()
        run_supervised([("bad", 0)], _boom, jobs=jobs, retries=1)
        counters = registry().delta_since(before)["counters"]
        counters.pop("supervisor.batches", None)  # pool dispatch groups only
        return counters

    def test_inline_and_pool_count_a_failing_task_alike(self):
        expected = {
            "supervisor.dispatched": 2,
            "supervisor.failures.error": 2,
            "supervisor.retries": 1,
        }
        assert self._deltas(jobs=1) == expected
        assert self._deltas(jobs=2) == expected


class TestChaosPlan:
    def test_bad_token_rejected(self):
        with pytest.raises(ConfigError):
            ChaosPlan.from_spec("explode@3")
        with pytest.raises(ConfigError):
            ChaosPlan.from_spec("crash3")
        with pytest.raises(ConfigError):
            ChaosPlan.from_spec("   ")

    def test_each_fault_fires_once(self, tmp_path):
        plan = ChaosPlan("corrupt@7", tmp_path)
        assert plan.after_task(7, "real") == CORRUPT_RESULT
        assert plan.after_task(7, "real") == "real"
        assert plan.after_task(8, "real") == "real"

    def test_interrupt_claim_is_once(self, tmp_path):
        plan = ChaosPlan("interrupt@x", tmp_path)
        assert plan.wants_interrupt("x") is True
        assert plan.wants_interrupt("x") is False
        assert plan.wants_interrupt("y") is False


class TestAdaptiveBatch:
    def test_targets_four_batches_per_worker(self):
        # ceil(total / (workers * 4)), so ~4 dispatch rounds per worker.
        assert adaptive_batch(16, 4) == 1
        assert adaptive_batch(17, 4) == 2
        assert adaptive_batch(320, 4) == 20

    def test_floor_is_one(self):
        assert adaptive_batch(0, 4) == 1
        assert adaptive_batch(1, 8) == 1

    def test_cap_bounds_queue_head_blocking(self):
        assert adaptive_batch(10_000, 1) == MAX_BATCH


class TestBatching:
    def test_invalid_batch_rejected(self):
        for bad in (0, -3, "sometimes", 2.5):
            with pytest.raises(ConfigError):
                run_supervised([(0, 1)], _double, jobs=2, timeout=5.0,
                               batch=bad)

    def test_batched_results_match_unbatched(self):
        tasks = [(i, i) for i in range(20)]
        unbatched = run_supervised(tasks, _double, jobs=2, timeout=10.0)
        for batch in (4, "adaptive", MAX_BATCH):
            batched = run_supervised(tasks, _double, jobs=2, timeout=10.0,
                                     batch=batch)
            assert batched.results == unbatched.results
            assert batched.failures == unbatched.failures == []

    def test_single_worker_batch_covers_all_tasks(self):
        tasks = [(i, i) for i in range(7)]
        report = run_supervised(tasks, _double, jobs=1, timeout=10.0, batch=3)
        assert report.results == {i: 2 * i for i in range(7)}

    def test_crash_mid_batch_retries_whole_batch(self):
        """A chaos crash kills the worker mid-batch; the undone tail of
        the batch must be re-dispatched, not lost."""
        plan = ChaosPlan.from_spec("crash@1")
        try:
            report = run_supervised(
                [(i, 10 + i) for i in range(6)], _double, jobs=1, retries=2,
                timeout=10.0, batch=6, chaos=plan,
            )
        finally:
            plan.cleanup()
        assert report.results == {i: 2 * (10 + i) for i in range(6)}
        assert report.retried >= 1 and report.failures == []

    def test_timeout_mid_batch_fails_head_and_abandons_rest(self):
        payloads = [(0, {"sleep": 30.0}), (1, {"sleep": 30.0})]
        report = run_supervised(payloads, _sleeper, jobs=1, retries=0,
                                timeout=1.0, batch=2)
        assert report.results == {}
        failures = {failure.task: failure for failure in report.failures}
        assert set(failures) == {0, 1}
        assert failures[0].kind == failures[1].kind == "timeout"
        assert "deadline" in failures[0].message
        assert "batch abandoned" in failures[1].message

    def test_abandoned_tasks_are_retried_to_success(self, tmp_path):
        """Only the head task is slow: after its deadline kills the
        batch, the abandoned tail must still complete on retry."""
        marker = tmp_path / "slow-once"
        payloads = [(0, {"marker": str(marker)}), (1, {"marker": "-"})]
        report = run_supervised(payloads, _slow_once, jobs=1, retries=2,
                                timeout=2.0, batch=2)
        assert report.results == {0: "done", 1: "done"}
        assert report.retried >= 1
