"""The trace wire format and sink/tracer behaviour."""

import pytest

from repro.experiments.runner import run_experiment
from repro.telemetry import activate, current_tracer, deactivate, recording
from repro.telemetry.events import EVENT_FIELDS, TRACE_SCHEMA
from repro.telemetry.record import _run_case, _run_stl_demo
from repro.telemetry.sinks import (
    JsonlSink,
    RingBufferSink,
    Tracer,
    read_trace,
    trace_header,
)


def _round_trip(tmp_path, kind, **fields):
    """Emit one event into a JSONL trace and read it back."""
    path = tmp_path / "t.trace.jsonl"
    sink = JsonlSink(path)
    Tracer(sink).emit(kind, **fields)
    sink.close()
    return read_trace(path)[1][0]


class TestEventRoundTrip:
    def test_every_kind_is_registered(self):
        assert len(EVENT_FIELDS) == 12
        assert "dispatch" in EVENT_FIELDS
        assert "predictor-transition" in EVENT_FIELDS

    def test_dispatch_round_trips(self, tmp_path):
        sink = RingBufferSink()
        Tracer(sink).emit("dispatch", cycle=3, thread=0, index=7, op="Load")
        (data,) = sink.events()
        assert list(data) == ["cycle", "thread", "kind", "index", "op", "seq"]
        assert data["kind"] == "dispatch"
        assert _round_trip(tmp_path, "dispatch", cycle=3, thread=0, index=7, op="Load") == data

    def test_predictor_transition_round_trips(self, tmp_path):
        fields = dict(
            cycle=9, thread=1, store_hash=0x11, load_hash=0x22,
            aliasing=True, exec_type="A", state_before="initialize",
            state_after="sq-stall", counters_before=[0, 0, 0, 0, 0],
            counters_after=[1, 0, 0, 0, 0],
        )
        rebuilt = _round_trip(tmp_path, "predictor-transition", **fields)
        assert rebuilt == {"kind": "predictor-transition", "seq": 0, **fields}
        assert rebuilt["counters_after"] == [1, 0, 0, 0, 0]


class TestFieldConformance:
    """Every emitter writes exactly the fields ``EVENT_FIELDS`` names.

    The targets below emit all twelve kinds between them: the STL demo
    under ``none`` and ``ssbd``, a generated fuzz case and the transient
    execution experiment (the only one that faults).
    """

    @pytest.fixture(scope="class")
    def events(self):
        sink = RingBufferSink()
        with recording(sink):
            _run_stl_demo(1337, "none")
            _run_stl_demo(1337, "ssbd")
            _run_case("fuzz-v1", 5, 12, None, "none")
            run_experiment("sec4-transient")
        assert sink.dropped == 0
        return sink.events()

    def test_keys_match_the_schema(self, events):
        for event in events:
            fields = EVENT_FIELDS[event["kind"]]
            assert list(event) == ["cycle", "thread", "kind", *fields, "seq"], event

    def test_every_kind_is_emitted(self, events):
        assert {event["kind"] for event in events} == set(EVENT_FIELDS)


class TestTracer:
    def test_assigns_monotonic_seq(self):
        sink = RingBufferSink()
        tracer = Tracer(sink)
        tracer.emit("dispatch", cycle=0, thread=0, index=0, op="Halt")
        tracer.emit("squash", cycle=1, thread=0, reason="fault",
                    from_index=0, penalty=10)
        assert [e["seq"] for e in sink.events()] == [0, 1]
        assert tracer.events_emitted == 2

    def test_ring_buffer_drops_oldest(self):
        sink = RingBufferSink(capacity=2)
        tracer = Tracer(sink)
        for index in range(3):
            tracer.emit("dispatch", cycle=index, thread=0, index=index, op="Pad")
        assert sink.dropped == 1
        assert [e["seq"] for e in sink.events()] == [1, 2]


class TestActivation:
    def test_recording_scopes_the_tracer(self):
        assert current_tracer() is None
        with recording(RingBufferSink()) as tracer:
            assert current_tracer() is tracer
        assert current_tracer() is None

    def test_double_activation_rejected(self):
        activate(RingBufferSink())
        try:
            with pytest.raises(RuntimeError):
                activate(RingBufferSink())
        finally:
            deactivate()
        assert current_tracer() is None


class TestJsonlSink:
    def test_write_and_read_back(self, tmp_path):
        path = tmp_path / "t.trace.jsonl"
        sink = JsonlSink(path, header=trace_header(target="unit", seed=5))
        tracer = Tracer(sink)
        tracer.emit(
            "stld-predict", cycle=2, thread=0, index=1, store_ipa=0x100,
            load_ipa=0x200, aliasing=False, psf_forward=False, sticky=False,
            covers=False,
        )
        sink.close()
        header, events = read_trace(path)
        assert header["schema"] == TRACE_SCHEMA
        assert header["target"] == "unit" and header["seed"] == 5
        assert len(events) == 1
        assert events[0]["kind"] == "stld-predict"

    def test_close_is_idempotent(self, tmp_path):
        sink = JsonlSink(tmp_path / "t.jsonl")
        sink.close()
        sink.close()

    def test_read_rejects_headerless_file(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind":"dispatch"}\n')
        with pytest.raises(ValueError):
            read_trace(path)
