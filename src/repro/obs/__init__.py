"""repro.obs — runtime telemetry: causal spans, metrics, exporters.

The observability layer for the integrated runtime:

* :mod:`repro.obs.spans` — timed spans with parent/child links, carried on
  the fabric execution context and stitched to message records by trace id;
* :mod:`repro.obs.metrics` — counters, gauges, and fixed-bucket histograms
  fed by the mailbox/processor/fault hooks that count what nothing else
  does; every counter the runtime keeps anyway (coalescer, plan
  registry, durability states, failure detector, routed traffic) is read
  from ``Machine.diagnostics()``;
* :mod:`repro.obs.observer` — :class:`Observer`, installed with one call
  (``machine.observe()``) and removed with ``observer.close()``;
* :mod:`repro.obs.export` — JSONL event log and Chrome trace-event dump
  (``chrome://tracing`` / Perfetto).

Everything stays a no-op until an observer is installed: instrumentation
sites probe one machine attribute and bail (see docs/observability.md for
measured overhead).
"""

from repro.obs.export import (
    chrome_trace,
    event_log,
    export_chrome_trace,
    export_jsonl,
    validate_chrome_trace,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.observer import Observer
from repro.obs.spans import NOOP_SPAN, SpanRecorder, new_span_id, span

__all__ = [
    "Observer",
    "SpanRecorder",
    "span",
    "new_span_id",
    "NOOP_SPAN",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_BUCKETS",
    "chrome_trace",
    "validate_chrome_trace",
    "export_chrome_trace",
    "export_jsonl",
    "event_log",
]
