"""repro.obs — runtime telemetry: causal spans, message events, Chrome trace.

The observability layer for the integrated runtime:

* :mod:`repro.obs.spans` — timed spans with parent/child links, carried on
  the fabric execution context and stitched to message records by trace id;
* :mod:`repro.obs.observer` — :class:`Observer`, installed with one call
  (``machine.observe()``) and removed with ``observer.close()``: it
  records spans, one event per routed message and the watchdog's
  deadlock dumps;
* :mod:`repro.obs.export` — the Chrome trace-event dump
  (``chrome://tracing`` / Perfetto) and its schema check.

The layer counts nothing: every counter the runtime keeps (routed
traffic, coalescer, plan registry, durability states, failure detector)
is read from ``Machine.diagnostics()``, observed or not.  Everything
here stays a no-op until an observer is installed: instrumentation sites
probe one machine attribute and bail (see docs/observability.md for
measured overhead).
"""

from repro.obs.export import (
    chrome_trace,
    export_chrome_trace,
    validate_chrome_trace,
)
from repro.obs.observer import Observer
from repro.obs.spans import NOOP_SPAN, SpanRecorder, new_span_id, span

__all__ = [
    "Observer",
    "SpanRecorder",
    "span",
    "new_span_id",
    "NOOP_SPAN",
    "chrome_trace",
    "validate_chrome_trace",
    "export_chrome_trace",
]
