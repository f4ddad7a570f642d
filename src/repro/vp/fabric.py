"""The layered message fabric: execution context + interceptor stack.

Every message the machine moves flows through one choke point,
:meth:`~repro.vp.machine.Machine.route`, and from there down an ordered
**interceptor stack** to final mailbox (or server) delivery.  This module
provides the two halves of that fabric:

* :class:`TransportStack` — an ordered, composable replacement for the old
  single-slot ``install_transport`` hook.  Fault injection
  (:class:`~repro.faults.transport.FaultyTransport`), traffic accounting
  (:class:`TrafficMeter`), and tracing (:class:`TraceInterceptor`) are all
  plain interceptors; pushing one never displaces another, and removing
  one restores exactly the stack beneath it.

* an **execution context** — a thread-local carrying the processor the
  current thread of control runs on and the trace envelope (trace id + hop
  count) it inherited.  :meth:`~repro.vp.processor.VirtualProcessor.spawn`
  propagates the context into child processes and the server propagates it
  into request handlers, so a whole distributed call (wrapper copies,
  their peer messages, nested array-manager hops) shares one trace id and
  every routed message records how many hops deep in the chain it sits.

Interceptor protocol
--------------------

An interceptor is a callable ``interceptor(message, forward)`` where
``forward(message)`` hands the message to the next layer down (ultimately
final delivery).  An interceptor may forward zero times (drop), once
(pass/transform), or several times (duplicate).  Interceptors that hold a
message and re-inject it *later* (delays, reordering) must deliver through
:meth:`TransportStack.forward_from`, which resolves the layers below them
at re-injection time — robust against the stack changing in between.
"""

from __future__ import annotations

import itertools
import threading
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.pcn.process import process_scoped
from repro.vp.message import Message

Forward = Callable[[Message], None]
Interceptor = Callable[[Message, Forward], None]


# -- execution context --------------------------------------------------------

_trace_counter = itertools.count()


def new_trace_id(prefix: str = "t") -> str:
    """A machine-unique trace identifier (deterministic, not wall-clock)."""
    return f"{prefix}-{next(_trace_counter)}"


Frame = Tuple[Optional[int], Optional[str], int, Optional[str]]


class _Context(threading.local):
    # (processor, trace_id, hop, span_id): replaced whole, never mutated,
    # so a scope saves and restores one reference.
    frame: Frame = (None, None, 0, None)


# Scoped to the process, not the thread: a body that leaves a context or
# a span open must not hand it to the next process its thread runs.
_context = process_scoped(_Context())


def current_processor() -> Optional[int]:
    """The virtual processor the calling thread executes on (None for
    top-level threads that are not placed on any node)."""
    return _context.frame[0]


def current_trace() -> "tuple[Optional[str], int]":
    """The (trace id, hop count) envelope the calling thread inherited."""
    _, trace_id, hop, _ = _context.frame
    return trace_id, hop


def current_envelope() -> "tuple[str, int, Optional[str]]":
    """The ``(trace_id, hop, span_id)`` a message sent by the calling
    thread carries.  A top-level sender with no ambient trace gets a
    synthesized root id — no message is ever attributed to trace None."""
    _, trace_id, hop, span_id = _context.frame
    if trace_id is None:
        trace_id = new_trace_id()
    return trace_id, hop, span_id


def current_span_id() -> Optional[str]:
    """The id of the innermost open observability span, if any.

    Maintained by :class:`repro.obs.spans.SpanHandle`; rides the same
    thread-local as the trace envelope so spawned processes and server
    handlers parent their spans onto the caller's."""
    return _context.frame[3]


class execution_context:
    """Scoped override of the calling thread's fabric context.

    Any field passed as ``None`` is inherited from the enclosing scope, so
    nesting composes: a program run under
    ``execution_context(trace_id=t)`` keeps its processor, and a process
    spawned from it inherits both.  (A served request sets its frame
    whole, with :func:`call_in_frame`.)
    """

    def __init__(
        self,
        processor: Optional[int] = None,
        trace_id: Optional[str] = None,
        hop: Optional[int] = None,
        span_id: Optional[str] = None,
    ) -> None:
        self._fields = (processor, trace_id, hop, span_id)
        self._saved: Frame = _Context.frame

    def __enter__(self) -> "execution_context":
        outer = self._saved = _context.frame
        processor, trace_id, hop, span_id = self._fields
        _context.frame = (
            outer[0] if processor is None else processor,
            outer[1] if trace_id is None else trace_id,
            outer[2] if hop is None else hop,
            outer[3] if span_id is None else span_id,
        )
        return self

    def __exit__(self, *exc_info: Any) -> None:
        _context.frame = self._saved


def snapshot_context() -> Frame:
    """Capture the context for propagation into a spawned process."""
    return _context.frame


def call_in_frame(frame: Frame, fn: Callable[..., Any], *args: Any) -> Any:
    """``fn(*args)`` with the calling thread's frame set to ``frame`` —
    ``(processor, trace_id, hop, span_id)``, every field as given — and
    the thread's own frame put back however ``fn`` ends.

    The one frame swap a served request costs: a server handler run in
    place or at a remote target enters its node's frame through here, in
    one Python frame, where :class:`execution_context` takes three."""
    saved = _context.frame
    _context.frame = frame
    try:
        return fn(*args)
    finally:
        _context.frame = saved


# -- the interceptor stack ----------------------------------------------------


class TransportStack:
    """An ordered stack of message interceptors over final delivery.

    Layer 0 is the *top* (first to see a routed message); the last layer
    forwards into ``terminal`` (the machine's final delivery).  The stack
    replaces the old single-slot transport hook: multiple subsystems
    interpose simultaneously and uninstalling one leaves the others
    exactly as they were.
    """

    def __init__(self, terminal: Forward) -> None:
        self._terminal = terminal
        # Both replaced whole on every mutation, so the per-message readers
        # (``Machine.send`` and ``Machine.route``, which read them directly)
        # need no lock; the lock serialises writers.  ``_forward`` is
        # ``_layers`` composed over the terminal, built when the stack
        # changes rather than per message.
        self._layers: tuple = ()
        self._forward: Forward = terminal
        self._lock = threading.Lock()

    # -- mutation -----------------------------------------------------------

    def _install(self, layers: tuple) -> None:
        """Publish ``layers`` and their composed chain (writers' lock held)."""
        self._forward = self._chain(layers)
        self._layers = layers

    def push(self, interceptor: Interceptor) -> Interceptor:
        """Install ``interceptor`` as the new top layer; returns it so
        ``stack.push(Tracer())`` reads naturally."""
        with self._lock:
            self._install((interceptor,) + self._layers)
        return interceptor

    def remove(self, interceptor: Interceptor) -> bool:
        """Remove one interceptor wherever it sits; the layers above and
        below knit back together.  Returns False if it was not installed."""
        with self._lock:
            layers = list(self._layers)
            try:
                layers.remove(interceptor)
            except ValueError:
                return False
            self._install(tuple(layers))
        return True

    def clear(self) -> None:
        with self._lock:
            self._install(())

    # -- introspection -------------------------------------------------------

    def layers(self) -> List[Interceptor]:
        """Snapshot, top first."""
        return list(self._layers)

    def __len__(self) -> int:
        return len(self._layers)

    def __contains__(self, interceptor: Interceptor) -> bool:
        return interceptor in self._layers

    # -- dispatch ------------------------------------------------------------

    def _chain(self, layers: Sequence[Interceptor]) -> Forward:
        forward = self._terminal
        for layer in reversed(layers):
            forward = _bind(layer, forward)
        return forward

    def dispatch(self, message: Message) -> None:
        """Send ``message`` through every layer, top to bottom."""
        self._forward(message)

    def forward_from(self, interceptor: Interceptor, message: Message) -> None:
        """Deliver ``message`` through the layers strictly *below*
        ``interceptor`` (final delivery directly if it is no longer
        installed).  This is the re-injection path for interceptors that
        hold messages on timers."""
        layers = self.layers()
        try:
            below = layers[layers.index(interceptor) + 1 :]
        except ValueError:
            below = []
        self._chain(below)(message)


def _bind(layer: Interceptor, forward: Forward) -> Forward:
    def step(message: Message) -> None:
        layer(message, forward)

    return step


# -- built-in interceptors ----------------------------------------------------


class TraceInterceptor:
    """Records one span per message that crosses its layer.

    A span is a dict with the message's envelope (``trace``, ``hop``,
    ``kind``) plus addressing and size; spans of one logical operation
    share a trace id, so ``spans_for(trace)`` reconstructs the whole hop
    chain of e.g. a region read fanning out to its owner processors.
    """

    def __init__(self, machine: Any = None) -> None:
        self.machine = machine
        self._lock = threading.Lock()
        self._spans: List[dict] = []

    def __call__(self, message: Message, forward: Forward) -> None:
        span = {
            "trace": message.trace_id,
            "span": message.span_id,
            "hop": message.hop,
            "kind": message.kind,
            "seq": message.seq,
            "source": message.source,
            "dest": message.dest,
            "mtype": message.mtype,
            "tag": message.tag,
            "group": message.group,
            "nbytes": message.nbytes(),
        }
        with self._lock:
            self._spans.append(span)
        forward(message)

    # -- queries -------------------------------------------------------------

    def spans(self) -> List[dict]:
        with self._lock:
            return list(self._spans)

    def spans_for(self, trace_id: str) -> List[dict]:
        with self._lock:
            return [s for s in self._spans if s["trace"] == trace_id]

    def traces(self) -> List[str]:
        """Distinct trace ids in first-seen order."""
        seen: dict = {}
        with self._lock:
            for span in self._spans:
                seen.setdefault(span["trace"], None)
        return list(seen)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    def install(self, machine: Any = None) -> "TraceInterceptor":
        target = machine if machine is not None else self.machine
        if target is None:
            raise ValueError("no machine to install on")
        self.machine = target
        target.transport_stack.push(self)
        return self

    def uninstall(self) -> None:
        if self.machine is not None:
            self.machine.transport_stack.remove(self)

    def __enter__(self) -> "TraceInterceptor":
        return self.install()

    def __exit__(self, *exc_info: Any) -> None:
        self.uninstall()


class TrafficMeter:
    """Per-layer traffic accounting: message/byte counts by message kind.

    Unlike the machine's global routed counters this measures exactly the
    traffic that crosses *its* position in the stack — e.g. pushed beneath
    a fault-injecting layer it counts only surviving messages."""

    def __init__(self, machine: Any = None) -> None:
        self.machine = machine
        self._lock = threading.Lock()
        self.messages = 0
        self.bytes = 0
        self.by_kind: dict = {}

    def __call__(self, message: Message, forward: Forward) -> None:
        size = message.nbytes()
        with self._lock:
            self.messages += 1
            self.bytes += size
            per = self.by_kind.setdefault(message.kind, [0, 0])
            per[0] += 1
            per[1] += size
        forward(message)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "messages": self.messages,
                "bytes": self.bytes,
                "by_kind": {k: tuple(v) for k, v in self.by_kind.items()},
            }

    def install(self, machine: Any = None) -> "TrafficMeter":
        target = machine if machine is not None else self.machine
        if target is None:
            raise ValueError("no machine to install on")
        self.machine = target
        target.transport_stack.push(self)
        return self

    def uninstall(self) -> None:
        if self.machine is not None:
            self.machine.transport_stack.remove(self)

    def __enter__(self) -> "TrafficMeter":
        return self.install()

    def __exit__(self, *exc_info: Any) -> None:
        self.uninstall()
