"""Causal span layer: parenting, trace synthesis, no-op discipline."""

import threading

import pytest

from repro.obs.spans import NOOP_SPAN, SpanRecorder, span as obs_span
from repro.vp import fabric
from repro.vp.machine import Machine


@pytest.fixture()
def machine():
    m = Machine(2)
    yield m
    observer = getattr(m, "_observer", None)
    if observer is not None:
        observer.close()


class TestNoopPath:
    def test_span_without_observer_is_shared_noop(self, machine):
        handle = obs_span(machine, "anything", detail=1)
        assert handle is NOOP_SPAN
        with handle:
            pass  # enter/exit are free

    def test_span_on_non_machine_object_is_noop(self):
        assert obs_span(object(), "x") is NOOP_SPAN


class TestSpanRecording:
    def test_records_timing_and_attrs(self, machine):
        observer = machine.observe()
        with obs_span(machine, "phase", size=4):
            pass
        (span,) = observer.recorder.spans()
        assert span["name"] == "phase"
        assert span["attrs"] == {"size": 4}
        assert span["end"] >= span["start"]
        assert span["duration"] == span["end"] - span["start"]
        assert span["status"] == "ok"

    def test_nested_spans_parent_correctly(self, machine):
        observer = machine.observe()
        with obs_span(machine, "outer"):
            with obs_span(machine, "inner"):
                pass
        inner, outer = observer.recorder.spans()
        assert inner["name"] == "inner"  # finishes (and records) first
        assert inner["parent"] == outer["span"]
        assert outer["parent"] is None
        assert inner["trace"] == outer["trace"]
        assert observer.recorder.depth_of(inner) == 1
        assert observer.recorder.depth_of(outer) == 0

    def test_root_span_synthesizes_trace(self, machine):
        observer = machine.observe()
        with obs_span(machine, "root"):
            trace_id, _ = fabric.current_trace()
            assert trace_id is not None and trace_id.startswith("root")
        (span,) = observer.recorder.spans()
        assert span["trace"] == trace_id

    def test_span_inherits_ambient_trace(self, machine):
        observer = machine.observe()
        with fabric.execution_context(trace_id="t-preset"):
            with obs_span(machine, "inner"):
                pass
        (span,) = observer.recorder.spans()
        assert span["trace"] == "t-preset"

    def test_exception_marks_span_error_and_propagates(self, machine):
        observer = machine.observe()
        with pytest.raises(RuntimeError):
            with obs_span(machine, "failing"):
                raise RuntimeError("boom")
        (span,) = observer.recorder.spans()
        assert span["status"] == "error"
        assert span["attrs"]["error"] == "RuntimeError"

    def test_scope_restored_after_exception(self, machine):
        machine.observe()
        before = fabric.current_span_id()
        with pytest.raises(RuntimeError):
            with obs_span(machine, "failing"):
                raise RuntimeError
        assert fabric.current_span_id() == before

    def test_annotate_while_open(self, machine):
        observer = machine.observe()
        with obs_span(machine, "phase") as handle:
            handle.annotate(rows=7)
        (span,) = observer.recorder.spans()
        assert span["attrs"]["rows"] == 7

    def test_span_id_propagates_to_spawned_process(self, machine):
        observer = machine.observe()
        seen = {}

        def child(node):
            seen["span"] = fabric.current_span_id()

        with obs_span(machine, "parent") as handle:
            proc = machine.processor(0).spawn(child, machine.processor(0))
            proc.join()
        assert seen["span"] == handle.span_id


class TestRecorderQueries:
    def test_bounded_with_drop_count(self):
        recorder = SpanRecorder(max_spans=2)
        for i in range(4):
            with recorder.start(f"s{i}", {}):
                pass
        assert [s["name"] for s in recorder.spans()] == ["s2", "s3"]
        assert recorder.dropped == 2

    def test_named_and_trace_and_children_queries(self, machine):
        observer = machine.observe()
        with obs_span(machine, "outer") as outer:
            with obs_span(machine, "inner"):
                pass
        recorder = observer.recorder
        assert len(recorder.spans_named("inner")) == 1
        trace = recorder.spans()[0]["trace"]
        assert len(recorder.spans_for_trace(trace)) == 2
        assert [s["name"] for s in recorder.children_of(outer.span_id)] == [
            "inner"
        ]

    def test_spans_for_processor_last_window(self):
        recorder = SpanRecorder()
        for i in range(5):
            handle = recorder.start(f"s{i}", {})
            with fabric.execution_context(processor=3):
                with handle:
                    pass
        found = recorder.spans_for_processor(3, last=2)
        assert [s["name"] for s in found] == ["s3", "s4"]

    def test_threads_record_concurrently(self, machine):
        observer = machine.observe()

        def work(i):
            with obs_span(machine, f"t{i}"):
                pass

        threads = [
            threading.Thread(target=work, args=(i,)) for i in range(16)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(observer.recorder.spans()) == 16
