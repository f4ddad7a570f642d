"""The causal span layer: timed spans with parent/child links.

A *span* is one timed phase of a logical operation — ``distributed_call``
encloses ``do_all`` encloses each copy's ``wrapper`` encloses the
collectives and array-manager requests the copy makes.  Causality is
carried on the fabric execution context (:mod:`repro.vp.fabric`): the
current span's id rides the same thread-local that already carries the
processor and trace envelope, so it propagates through ``spawn`` and
server-request hops for free, and every routed message is stamped with
the span that sent it — which is how timed spans are stitched to the
per-message records of :class:`~repro.vp.fabric.TraceInterceptor` (they
share the ``trace_id``).

Hot-path discipline: :func:`span` is the only call instrumented code
makes.  With no observer installed on the machine it returns a shared
no-op handle — one ``getattr`` plus an identity check; no allocation, no
locks, no clock reads.
"""

from __future__ import annotations

import collections
import itertools
import threading
import time
from typing import Any, Optional

from repro.vp import fabric

_span_serials = itertools.count()


def new_span_id() -> str:
    """A machine-unique span identifier (deterministic, not wall-clock)."""
    return f"s-{next(_span_serials)}"


class _NoopSpan:
    """Shared do-nothing handle returned when observation is off."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        return False

    def annotate(self, **attrs: Any) -> None:
        pass


NOOP_SPAN = _NoopSpan()


class SpanHandle:
    """One live span: context manager that records timing + causal links.

    On entry the handle captures the calling thread's fabric context
    (processor, trace id, enclosing span id) and scopes itself in as the
    current span — children created under it, including on threads spawned
    from it and at the far end of server-request hops, parent onto it.  A
    span opened with no ambient trace synthesizes a *root* trace id, so
    all messages routed beneath it share one trace (nothing is ever lumped
    under ``None``).
    """

    __slots__ = (
        "name", "span_id", "parent_id", "trace_id", "processor",
        "attrs", "status", "start", "end", "_recorder", "_scope",
    )

    def __init__(self, recorder: "SpanRecorder", name: str, attrs: dict) -> None:
        self.name = name
        self.span_id = new_span_id()
        self.attrs = attrs
        self.status = "ok"
        self.start = 0.0
        self.end = 0.0
        self.parent_id: Optional[str] = None
        self.trace_id: Optional[str] = None
        self.processor: Optional[int] = None
        self._recorder = recorder
        self._scope: Optional[fabric.execution_context] = None

    def __enter__(self) -> "SpanHandle":
        self.parent_id = fabric.current_span_id()
        self.processor = fabric.current_processor()
        trace_id, _ = fabric.current_trace()
        if trace_id is None:
            trace_id = fabric.new_trace_id("root")
        self.trace_id = trace_id
        self._scope = fabric.execution_context(
            trace_id=trace_id, span_id=self.span_id
        )
        self._scope.__enter__()
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        self.end = time.perf_counter()
        if self._scope is not None:
            self._scope.__exit__(exc_type, exc, tb)
            self._scope = None
        if exc_type is not None:
            self.status = "error"
            self.attrs = dict(self.attrs)
            self.attrs["error"] = exc_type.__name__
        self._recorder.record(self)
        return False

    def annotate(self, **attrs: Any) -> None:
        """Attach extra attributes to the span while it is open."""
        self.attrs = dict(self.attrs)
        self.attrs.update(attrs)

    def as_dict(self) -> dict:
        return {
            "type": "span",
            "name": self.name,
            "span": self.span_id,
            "parent": self.parent_id,
            "trace": self.trace_id,
            "processor": self.processor,
            "start": self.start,
            "end": self.end,
            "duration": self.end - self.start,
            "status": self.status,
            "attrs": self.attrs,
        }


class SpanRecorder:
    """Bounded store of finished spans (newest kept, oldest dropped)."""

    def __init__(self, max_spans: int = 100_000) -> None:
        if max_spans < 1:
            raise ValueError("max_spans must be positive")
        self.max_spans = max_spans
        self._lock = threading.Lock()
        self._spans: collections.deque = collections.deque(maxlen=max_spans)
        self.dropped = 0

    def start(self, name: str, attrs: dict) -> SpanHandle:
        return SpanHandle(self, name, attrs)

    def record(self, handle: SpanHandle) -> None:
        entry = handle.as_dict()
        with self._lock:
            if len(self._spans) == self.max_spans:
                self.dropped += 1  # the ring drops its oldest
            self._spans.append(entry)

    # -- queries -------------------------------------------------------------

    def spans(self) -> list[dict]:
        with self._lock:
            return list(self._spans)

    def spans_named(self, name: str) -> list[dict]:
        return [s for s in self.spans() if s["name"] == name]

    def spans_for_trace(self, trace_id: str) -> list[dict]:
        return [s for s in self.spans() if s["trace"] == trace_id]

    def spans_for_processor(
        self, processor: Optional[int], last: Optional[int] = None
    ) -> list[dict]:
        found = [s for s in self.spans() if s["processor"] == processor]
        return found if last is None else found[-last:]

    def children_of(self, span_id: str) -> list[dict]:
        return [s for s in self.spans() if s["parent"] == span_id]

    def depth_of(self, span: dict) -> int:
        """Ancestor count of a finished span (root span -> 0)."""
        by_id = {s["span"]: s for s in self.spans()}
        depth = 0
        parent = span["parent"]
        while parent is not None and parent in by_id:
            depth += 1
            parent = by_id[parent]["parent"]
        return depth

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self.dropped = 0


def span(machine: Any, name: str, **attrs: Any) -> Any:
    """Open a span on ``machine``'s observer, or a shared no-op handle.

    The one call every instrumentation site makes::

        with obs_span(machine, "combine", parts=n):
            ...

    When ``Machine.observe()`` has not been called this costs a single
    attribute probe and returns the shared :data:`NOOP_SPAN`.
    """
    observer = getattr(machine, "_observer", None)
    if observer is None:
        return NOOP_SPAN
    return observer.recorder.start(name, attrs)
