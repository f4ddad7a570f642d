"""The metrics registry: counters, gauges, and fixed-bucket histograms.

The thesis evaluates the model through message counts and wall-clock
tables (§3.4.1, §6, §E); this module generalises those two ad-hoc
measurements into a small, thread-safe instrument registry in the style
of a Prometheus client:

* :class:`Counter` — a monotonically increasing count (messages routed,
  faults injected, processes spawned);
* :class:`Gauge` — a value that goes up and down (mailbox depth, live
  processes, array epoch);
* :class:`Histogram` — observations bucketed against a fixed boundary
  list (receive wait times, span durations).

Instruments are identified by ``(name, labels)``; :meth:`MetricsRegistry.
counter` and friends get-or-create, so instrumentation sites never need
to pre-register anything.  An instrument is *fed*; a registry can also
export *views* — series read, at export time, from a counter somebody
else keeps (:mod:`repro.obs.views`).  :meth:`MetricsRegistry.
to_prometheus` renders both in the Prometheus text exposition format and
:meth:`MetricsRegistry.snapshot` as a plain dict for tests and
``Machine.diagnostics()``.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

# Default histogram boundaries, in seconds: spans from sub-millisecond
# collective hops to multi-second supervised-retry waits.
DEFAULT_BUCKETS: tuple = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0,
)


def _label_key(labels: dict) -> tuple:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


# What the text exposition format requires escaped inside a label value.
_ESCAPES = str.maketrans({"\\": r"\\", '"': r"\"", "\n": r"\n"})


def _label_str(labels: tuple) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{v.translate(_ESCAPES)}"' for k, v in labels)
    return "{" + inner + "}"


def _number(value: float) -> str:
    """A sample value as the exposition prints it: whole numbers in full
    (``%g`` would round a byte count to six digits)."""
    value = float(value)
    return str(int(value)) if value.is_integer() else repr(value)


class Counter:
    """A monotonically increasing count."""

    kind = "counter"

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

    kind = "gauge"

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
    cumulative on export (Prometheus convention) but stored per-bucket.
    """

    kind = "histogram"

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
        # The views exported beside the instruments: a callable returning
        # ``(name, type, labels, value)`` rows, read at every export.  An
        # Observer points it at its machine; a bare registry has none.
        self.views: Callable[[], Iterable[tuple]] = lambda: ()

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

    # -- export ---------------------------------------------------------------

    def series(self) -> Iterator[tuple]:
        """``(name, type, labels, sample)`` of everything exported: the
        fed instruments, then the views."""
        for inst in self.instruments():
            yield inst.name, inst.kind, inst.labels, inst.sample()
        yield from self.views()

    def snapshot(self) -> dict:
        """``{name{labels}: sample}`` for diagnostics and tests."""
        return {
            name + _label_str(labels): sample
            for name, _kind, labels, sample in self.series()
        }

    def to_prometheus(self) -> str:
        """The registry in Prometheus text exposition format."""
        by_name: dict[tuple, list] = {}
        for name, kind, labels, sample in self.series():
            by_name.setdefault((name, kind), []).append((labels, sample))
        lines = []
        for name, kind in sorted(by_name):
            lines.append(f"# TYPE {name} {kind}")
            for labels, sample in by_name[name, kind]:
                if kind != "histogram":
                    lines.append(
                        f"{name}{_label_str(labels)} {_number(sample)}"
                    )
                    continue
                cumulative = 0
                for bound, count in sample["buckets"].items():
                    cumulative += count
                    le = _label_key(dict(labels, le=f"{float(bound):g}"))
                    lines.append(
                        f"{name}_bucket{_label_str(le)} {cumulative}"
                    )
                le = _label_key(dict(labels, le="+Inf"))
                lines.append(
                    f"{name}_bucket{_label_str(le)} {sample['count']}"
                )
                lines.append(
                    f"{name}_sum{_label_str(labels)} "
                    f"{_number(sample['sum'])}"
                )
                lines.append(
                    f"{name}_count{_label_str(labels)} {sample['count']}"
                )
        return "\n".join(lines) + ("\n" if lines else "")
