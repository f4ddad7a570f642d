"""Exporters: the Chrome trace-event dump and its schema check."""

import json

import numpy as np
import pytest

from repro.calls import Reduce
from repro.core.runtime import IntegratedRuntime
from repro.obs.export import (
    MAIN_TRACK,
    chrome_trace,
    validate_chrome_trace,
)
from repro.spmd import collectives
from repro.spmd.linalg import interior


@pytest.fixture()
def rt():
    runtime = IntegratedRuntime(4)
    yield runtime
    if runtime.observer is not None:
        runtime.observer.close()


def _run_observed_call(rt):
    """One distributed call under observation; returns the observer."""
    observer = rt.observe()
    arr = rt.array("double", (8,), distrib=[("block", 4)])

    def program(ctx, sec, out):
        interior(sec)[:] = 1.0
        out[0] = collectives.allreduce(
            ctx.comm, float(interior(sec).sum()), op="sum"
        )

    result = rt.call(
        rt.all_processors(), program, [arr, Reduce("double", 1, "max")]
    )
    assert result.reductions[0] == 8.0
    arr.free()
    return observer


class TestChromeTrace:
    def test_exported_call_has_three_nested_span_levels(self, rt, tmp_path):
        """Acceptance: a distributed_call exports with >= 3 nested levels
        (call -> do_all -> wrapper -> collective) in a loadable trace."""
        observer = _run_observed_call(rt)
        path = tmp_path / "trace.json"
        observer.export_chrome_trace(str(path))
        document = json.loads(path.read_text())
        validate_chrome_trace(document)

        spans = {
            e["args"]["span"]: e
            for e in document["traceEvents"]
            if e.get("cat") == "span"
        }

        def depth(event):
            levels = 0
            parent = event["args"]["parent"]
            while parent is not None and parent in spans:
                levels += 1
                parent = spans[parent]["args"]["parent"]
            return levels

        deepest = max(spans.values(), key=depth)
        assert depth(deepest) >= 3
        names = {e["name"] for e in spans.values()}
        assert {"distributed_call", "do_all", "wrapper"} <= names
        assert any(n.startswith("collective:") for n in names)

    def test_span_and_message_events_share_trace_ids(self, rt):
        observer = _run_observed_call(rt)
        document = chrome_trace(observer)
        span_traces = {
            e["args"]["trace"]
            for e in document["traceEvents"]
            if e.get("cat") == "span" and e["name"] == "wrapper"
        }
        message_traces = {
            e["args"]["trace"]
            for e in document["traceEvents"]
            if e.get("cat") == "message"
        }
        assert span_traces & message_traces

    def test_tracks_are_named_per_vp(self, rt):
        observer = _run_observed_call(rt)
        document = chrome_trace(observer)
        names = {
            e["tid"]: e["args"]["name"]
            for e in document["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert names.get(0) == "vp0"
        if MAIN_TRACK in names:
            assert names[MAIN_TRACK] == "main"

    def test_timestamps_relative_and_nonnegative(self, rt):
        observer = _run_observed_call(rt)
        document = chrome_trace(observer)
        for event in document["traceEvents"]:
            if event["ph"] != "M":
                assert event["ts"] >= 0

    def test_non_primitive_attrs_serialised(self, rt):
        observer = rt.observe()
        with observer.span("phase", data=np.arange(3)):
            pass
        document = chrome_trace(observer)
        json.dumps(document)  # must be serialisable end to end
        validate_chrome_trace(document)


class TestValidator:
    def test_accepts_minimal_document(self):
        assert validate_chrome_trace(
            {"traceEvents": [
                {"name": "x", "ph": "X", "ts": 0, "dur": 1, "pid": 0, "tid": 0}
            ]}
        )

    @pytest.mark.parametrize(
        "document, complaint",
        [
            ([], "JSON object"),
            ({}, "traceEvents"),
            ({"traceEvents": [{}]}, "missing"),
            (
                {"traceEvents": [
                    {"name": "x", "ph": "?", "ts": 0, "pid": 0, "tid": 0}
                ]},
                "phase",
            ),
            (
                {"traceEvents": [
                    {"name": "x", "ph": "X", "ts": -1, "dur": 1,
                     "pid": 0, "tid": 0}
                ]},
                "negative",
            ),
            (
                {"traceEvents": [
                    {"name": "x", "ph": "X", "ts": 0, "pid": 0, "tid": 0}
                ]},
                "dur",
            ),
            (
                {"traceEvents": [
                    {"name": "x", "ph": "i", "ts": 0, "pid": 0, "tid": "a"}
                ]},
                "integer",
            ),
        ],
    )
    def test_rejects_malformed_documents(self, document, complaint):
        with pytest.raises(ValueError, match=complaint):
            validate_chrome_trace(document)
