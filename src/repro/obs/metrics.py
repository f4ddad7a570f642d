"""The metrics registry: counters, gauges, and fixed-bucket histograms.

The thesis evaluates the model through message counts and wall-clock
tables (§3.4.1, §6, §E); this module holds the few instruments an
:class:`~repro.obs.observer.Observer` feeds for events nothing else
counts, in a small, thread-safe registry:

* :class:`Counter` — a monotonically increasing count (processes
  spawned, faults injected, deadlocks dumped);
* :class:`Gauge` — a value that goes up and down (mailbox depth);
* :class:`Histogram` — observations bucketed against a fixed boundary
  list (receive wait times, detection latency).

Instruments are identified by ``(name, labels)``; :meth:`MetricsRegistry.
counter` and friends get-or-create, so instrumentation sites never need
to pre-register anything.  :meth:`MetricsRegistry.snapshot` is the
registry as a plain dict for tests and ``Machine.diagnostics()``; every
counter a subsystem keeps for itself is read from
``Machine.diagnostics()``, not from here.
"""

from __future__ import annotations

import threading
from typing import Any, Optional, Sequence

# Default histogram boundaries, in seconds: spans from sub-millisecond
# collective hops to multi-second supervised-retry waits.
DEFAULT_BUCKETS: tuple = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0,
)


def _label_key(labels: dict) -> tuple:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _label_str(labels: tuple) -> str:
    if not labels:
        return ""
    return "{" + ",".join(f'{k}="{v}"' for k, v in labels) + "}"


class Counter:
    """A monotonically increasing count."""

    def __init__(self, name: str, labels: tuple) -> None:
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def sample(self) -> Any:
        return self.value


class Gauge:
    """A value that may go up and down."""

    def __init__(self, name: str, labels: tuple) -> None:
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def sample(self) -> Any:
        return self.value


class Histogram:
    """Observations bucketed against fixed boundaries.

    ``buckets`` is the ordered tuple of upper bounds; an implicit ``+Inf``
    bucket catches everything above the last boundary.  Bucket counts are
    stored and sampled per bucket, not cumulatively.
    """

    def __init__(
        self,
        name: str,
        labels: tuple,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("histogram buckets must be sorted and non-empty")
        self.name = name
        self.labels = labels
        self.buckets = bounds
        self._lock = threading.Lock()
        self._counts = [0] * (len(bounds) + 1)  # +1 for +Inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        index = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                index = i
                break
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def sample(self) -> Any:
        with self._lock:
            return {
                "count": self._count,
                "sum": self._sum,
                "buckets": {
                    str(b): c for b, c in zip(self.buckets, self._counts)
                },
                "inf": self._counts[-1],
            }


class MetricsRegistry:
    """Thread-safe get-or-create registry of named instruments."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[tuple, Any] = {}

    def _get(self, factory, name: str, labels: dict, **kwargs) -> Any:
        key = (name, _label_key(labels))
        with self._lock:
            instrument = self._instruments.get(key)
            if instrument is None:
                instrument = factory(name, key[1], **kwargs)
                self._instruments[key] = instrument
            return instrument

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        buckets: Optional[Sequence[float]] = None,
        **labels: Any,
    ) -> Histogram:
        return self._get(
            Histogram, name, labels,
            buckets=tuple(buckets) if buckets else DEFAULT_BUCKETS,
        )

    def instruments(self) -> list:
        with self._lock:
            return list(self._instruments.values())

    def snapshot(self) -> dict:
        """``{name{labels}: sample}`` for diagnostics and tests."""
        return {
            inst.name + _label_str(inst.labels): inst.sample()
            for inst in self.instruments()
        }
