"""The observer: one-call enablement of runtime telemetry on a machine.

``Machine.observe()`` constructs an :class:`Observer` and installs it:

* sets itself as ``machine._observer`` — the attribute the span sites
  and the deadlock watchdog probe (both stay no-ops until this flips);
* pushes a message-event interceptor onto the transport stack, recording
  a timed event per routed message (stitched to spans by ``trace_id`` and
  ``span``).

``close()`` (or the context-manager exit) reverses both, restoring the
exact pre-observation machine.

The observer counts nothing: an event is counted by the object that owns
it (the machine's routed traffic, the array's durability state, ...,
read from ``Machine.diagnostics()``; an injected fault by
``FaultyTransport.stats``), so no event has two counts.
"""

from __future__ import annotations

import collections
import threading
import time
from typing import Any

from repro.obs.spans import SpanRecorder


class Observer:
    """Spans + message events + deadlock dumps for one machine."""

    def __init__(
        self,
        machine: Any,
        max_spans: int = 100_000,
        max_events: int = 200_000,
    ) -> None:
        self.machine = machine
        self.recorder = SpanRecorder(max_spans=max_spans)
        self.epoch = time.perf_counter()
        self.events_dropped = 0
        self._events: collections.deque = collections.deque(maxlen=max_events)
        self._events_lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------------

    def install(self) -> "Observer":
        if self.installed:
            return self
        self.machine._observer = self
        self.machine.transport_stack.push(self._on_message)
        return self

    def close(self) -> None:
        """Uninstall every hook; recorded data stays readable."""
        if not self.installed:
            return
        self.machine.transport_stack.remove(self._on_message)
        self.machine._observer = None

    @property
    def installed(self) -> bool:
        return self.machine._observer is self

    def __enter__(self) -> "Observer":
        return self.install()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- span helper ----------------------------------------------------------

    def span(self, name: str, **attrs: Any) -> Any:
        """Open a span directly on this observer (observer already known)."""
        return self.recorder.start(name, attrs)

    # -- message events -----------------------------------------------------

    def _on_message(self, message: Any, forward: Any) -> None:
        """The transport-stack interceptor: one timed event per routed
        message."""
        self._record_event(
            {
                "type": "message",
                "ts": time.perf_counter(),
                "kind": message.kind,
                "trace": message.trace_id,
                "span": message.span_id,
                "hop": message.hop,
                "seq": message.seq,
                "source": message.source,
                "dest": message.dest,
                "nbytes": message.nbytes(),
            }
        )
        forward(message)

    def _record_event(self, event: dict) -> None:
        with self._events_lock:
            if len(self._events) == self._events.maxlen:
                self.events_dropped += 1  # the ring drops its oldest
            self._events.append(event)

    def events(self) -> list[dict]:
        with self._events_lock:
            return list(self._events)

    # -- deadlock dumps ---------------------------------------------------------

    def record_deadlock(self, edges: Any, last: int = 20) -> None:
        """Append a self-contained deadlock report to the event ring.

        ``edges`` is the watchdog's wait-graph; the report carries the
        graph plus the last ``last`` spans of every involved VP, so the
        event ring alone explains what each stuck processor was doing.
        """
        import re

        involved: set[int] = set()
        for edge in edges:
            for text in (str(edge.waiter), str(edge.resource)):
                for hit in re.findall(r"(?:vp|@)(\d+)", text):
                    involved.add(int(hit))
        self._record_event(
            {
                "type": "deadlock",
                "ts": time.perf_counter(),
                "wait_graph": [str(e) for e in edges],
                "spans_by_vp": {
                    vp: self.recorder.spans_for_processor(vp, last=last)
                    for vp in sorted(involved)
                },
            }
        )

    # -- summaries ---------------------------------------------------------------

    def span_summary(self) -> list[tuple]:
        """``(name, count, total_seconds)`` rows, slowest first."""
        totals: dict[str, list] = {}
        for span in self.recorder.spans():
            entry = totals.setdefault(span["name"], [0, 0.0])
            entry[0] += 1
            entry[1] += span["duration"]
        return sorted(
            ((name, c, t) for name, (c, t) in totals.items()),
            key=lambda row: -row[2],
        )

    def diagnostics(self) -> dict:
        return {
            "enabled": self.installed,
            "spans": len(self.recorder.spans()),
            "spans_dropped": self.recorder.dropped,
            "events": len(self.events()),
            "events_dropped": self.events_dropped,
        }

    # -- exports -----------------------------------------------------------------

    def export_chrome_trace(self, path: str) -> dict:
        from repro.obs.export import export_chrome_trace

        return export_chrome_trace(self, path)
