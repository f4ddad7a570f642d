"""The observer: one-call enablement of runtime telemetry on a machine.

``Machine.observe()`` constructs an :class:`Observer` and installs it:

* sets itself as ``machine._observer`` — the single attribute every
  instrumentation site probes (spans, mailbox depth and wait, fault
  counters, array-manager handler timing all stay no-ops until this
  flips);
* pushes a message-event interceptor onto the transport stack, recording
  a timed event per routed message (stitched to spans by ``trace_id`` and
  ``span``);
* subscribes to :mod:`repro.pcn.defvar` suspensions (``pcn`` knows no
  machine, so that one hook is module-level).

``close()`` (or the context-manager exit) reverses all of it, restoring
the exact pre-observation machine.

What the feed methods below count is what nothing reachable from the
machine counts already; every event a subsystem counts for itself is
read from ``Machine.diagnostics()``, so no event has two counts.
"""

from __future__ import annotations

import collections
import threading
import time
from typing import Any

from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanRecorder
from repro.pcn import defvar as _defvar
from repro.vp import fabric


class Observer:
    """Spans + metrics + event log for one machine."""

    def __init__(
        self,
        machine: Any,
        max_spans: int = 100_000,
        max_events: int = 200_000,
    ) -> None:
        self.machine = machine
        self.recorder = SpanRecorder(max_spans=max_spans)
        self.metrics = MetricsRegistry()
        self.epoch = time.perf_counter()
        self.events_dropped = 0
        self._events: collections.deque = collections.deque(maxlen=max_events)
        self._events_lock = threading.Lock()
        self._mailbox: dict[int, tuple] = {}

    # -- lifecycle -----------------------------------------------------------

    def install(self) -> "Observer":
        if self.installed:
            return self
        self.machine._observer = self
        self.machine.transport_stack.push(self._on_message)
        _defvar.add_suspend_hook(self._on_defvar_suspend)
        return self

    def close(self) -> None:
        """Uninstall every hook; recorded data stays readable."""
        if not self.installed:
            return
        self.machine.transport_stack.remove(self._on_message)
        _defvar.remove_suspend_hook(self._on_defvar_suspend)
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

    # -- event log -------------------------------------------------------------

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

    # -- metric feed points ----------------------------------------------------

    def _mailbox_instruments(self, owner: int) -> tuple:
        """One VP's delivery counter, depth gauge and wait histogram,
        looked up by name once and held: the two feeds below run per
        message."""
        held = self._mailbox.get(owner)
        if held is None:
            held = self._mailbox[owner] = (
                self.metrics.counter(
                    "repro_mailbox_delivered_total", vp=owner
                ),
                self.metrics.gauge("repro_mailbox_depth", vp=owner),
                self.metrics.histogram(
                    "repro_mailbox_recv_wait_seconds", vp=owner
                ),
            )
        return held

    def mailbox_delivered(self, owner: int, depth: int) -> None:
        delivered, queued, _ = self._mailbox_instruments(owner)
        delivered.inc()
        queued.set(depth)

    def mailbox_received(self, owner: int, wait: float, depth: int) -> None:
        _, queued, waited = self._mailbox_instruments(owner)
        waited.observe(wait)
        queued.set(depth)

    def process_spawned(self, processor: int) -> None:
        self.metrics.counter(
            "repro_processes_spawned_total", vp=processor
        ).inc()

    def fault_injected(self, fault_type: str) -> None:
        self.metrics.counter(
            "repro_faults_injected_total", type=fault_type
        ).inc()

    def replica_update(self) -> None:
        """One ``replica_update`` message applied to (or refused by) a
        backup's mirror; a refusal is counted by the array's durability
        state."""
        self.metrics.counter("repro_replica_updates_total").inc()

    def detection_latency(self, seconds: float) -> None:
        """Observed silence at the moment a timeout verdict hardened."""
        self.metrics.histogram(
            "repro_health_detection_latency_seconds"
        ).observe(seconds)

    def _on_defvar_suspend(self, label: str) -> None:
        processor = fabric.current_processor()
        self.metrics.counter(
            "repro_defvar_suspensions_total",
            vp="main" if processor is None else processor,
        ).inc()

    # -- deadlock dumps ---------------------------------------------------------

    def record_deadlock(self, edges: Any, last: int = 20) -> None:
        """Append a self-contained deadlock report to the event log.

        ``edges`` is the watchdog's wait-graph; the report carries the
        graph plus the last ``last`` spans of every involved VP, so the
        event log alone explains what each stuck processor was doing.
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
        self.metrics.counter("repro_deadlocks_total").inc()

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
            "metrics": self.metrics.snapshot(),
        }

    # -- exports -----------------------------------------------------------------

    def export_chrome_trace(self, path: str) -> dict:
        from repro.obs.export import export_chrome_trace

        return export_chrome_trace(self, path)

    def export_jsonl(self, path: str) -> int:
        from repro.obs.export import export_jsonl

        return export_jsonl(self, path)
