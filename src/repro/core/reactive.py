"""Reactive computations (§2.3.3, Fig 2.3).

A problem in this class is "a not-necessarily-regular graph of
communicating processes operating asynchronously, in which each process is
a data-parallel computation, and communication among neighbouring processes
is performed by a task-parallel top-level program".  Discrete-event
simulation is the motivating instance: graph nodes are system components
(pumps, valves, the reactor), events model their interaction, and a
computationally intensive component model is a distributed call.

:class:`ReactiveGraph` runs one PCN process per node.  Nodes exchange
timestamped :class:`Event` objects along FIFO streams; a node's handler
consumes one event and emits zero or more (destination, event) pairs.
Termination uses in-flight counting: when no event is queued or being
handled anywhere, every input stream is closed and the run completes —
so irregular, data-dependent event cascades (the "dynamic computations"
task parallelism exists for, §1.1.4) terminate without a preset horizon.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro.pcn.process import ProcessGroup
from repro.pcn.streams import stream_pair


@dataclass(frozen=True)
class Event:
    """A timestamped event."""

    time: float
    kind: str
    payload: Any = None

    def at(self, dt: float, kind: Optional[str] = None, payload: Any = None) -> "Event":
        """Derived event ``dt`` later (convenience for handlers)."""
        return Event(
            self.time + dt,
            kind if kind is not None else self.kind,
            payload if payload is not None else self.payload,
        )


Handler = Callable[["ReactiveNode", Event], Optional[Sequence[tuple[str, Event]]]]


@dataclass
class ReactiveNode:
    """One graph node: a component of the simulated system.

    ``handler(node, event)`` processes one event, returning the events to
    emit as ``(destination_name, Event)`` pairs.  ``state`` is the node's
    private mutable state; ``processors`` the group its data-parallel model
    runs on (the handler closes over it for distributed calls).
    """

    name: str
    handler: Handler
    state: dict = field(default_factory=dict)
    processors: Optional[Sequence[int]] = None
    handled: list = field(default_factory=list)  # (local time, kind) log
    local_time: float = 0.0


@dataclass
class ReactiveResult:
    events_handled: int
    wall_time: float
    per_node_counts: dict

    def __repr__(self) -> str:
        return (
            f"<ReactiveResult events={self.events_handled} "
            f"wall={self.wall_time:.3f}s nodes={self.per_node_counts}>"
        )


class _InFlight:
    """Distributed-termination counter: >0 while any event is queued or
    being handled."""

    def __init__(self) -> None:
        self._count = 0
        self._cond = threading.Condition()

    def increment(self, by: int = 1) -> None:
        with self._cond:
            self._count += by

    def decrement(self) -> None:
        with self._cond:
            self._count -= 1
            if self._count == 0:
                self._cond.notify_all()

    def wait_zero(self, timeout: float) -> bool:
        with self._cond:
            return self._cond.wait_for(lambda: self._count == 0, timeout)


class TopologyError(Exception):
    """An event was emitted along an undeclared edge of a strict graph."""


class ReactiveGraph:
    """An asynchronous graph of event-handling nodes.

    By default the graph is *dynamic*: handlers may emit to any node (the
    thesis allows the graph to "change as the computation proceeds",
    §2.3.3).  Declaring edges with :meth:`connect` makes the topology
    *strict*: an emission along an undeclared edge raises
    :class:`TopologyError` — a structural safety net for fixed-topology
    simulations like the Fig 2.3 reactor.
    """

    def __init__(self) -> None:
        self.nodes: dict[str, ReactiveNode] = {}
        self.edges: set[tuple[str, str]] = set()
        self._strict = False

    def add_node(
        self,
        name: str,
        handler: Handler,
        state: Optional[dict] = None,
        processors: Optional[Sequence[int]] = None,
    ) -> ReactiveNode:
        if name in self.nodes:
            raise ValueError(f"duplicate node {name!r}")
        node = ReactiveNode(
            name=name,
            handler=handler,
            state=state if state is not None else {},
            processors=processors,
        )
        self.nodes[name] = node
        return node

    def connect(self, source: str, dest: str) -> None:
        """Declare a directed edge; the first declaration makes the
        topology strict."""
        for name in (source, dest):
            if name not in self.nodes:
                raise KeyError(f"no node named {name!r}")
        self.edges.add((source, dest))
        self._strict = True

    def _check_edge(self, source: str, dest: str) -> None:
        if self._strict and (source, dest) not in self.edges:
            raise TopologyError(
                f"undeclared edge {source!r} -> {dest!r}; declared edges: "
                f"{sorted(self.edges)}"
            )

    def run(
        self,
        initial_events: Sequence[tuple[str, Event]],
        timeout: float = 30.0,
    ) -> ReactiveResult:
        """Inject ``initial_events`` and run to quiescence."""
        if not self.nodes:
            raise ValueError("reactive graph has no nodes")
        inflight = _InFlight()
        writers = {}
        streams = {}
        locks = {}
        for name in self.nodes:
            stream, writer = stream_pair()
            streams[name] = stream
            writers[name] = writer
            locks[name] = threading.Lock()

        def emit(dest: str, event: Event) -> None:
            if dest not in writers:
                raise KeyError(f"no node named {dest!r}")
            inflight.increment()
            with locks[dest]:
                # Raises StreamClosed once the run has closed the streams.
                writers[dest].send(event)

        def close_streams() -> None:
            for name in self.nodes:
                with locks[name]:
                    writers[name].close()

        errors: list[BaseException] = []
        errors_lock = threading.Lock()

        def node_process(node: ReactiveNode) -> None:
            for event in streams[node.name]:
                try:
                    node.local_time = max(node.local_time, event.time)
                    node.handled.append((event.time, event.kind))
                    out = node.handler(node, event) or ()
                    for dest, new_event in out:
                        self._check_edge(node.name, dest)
                        emit(dest, new_event)
                except BaseException as exc:  # noqa: BLE001 - re-raised below
                    with errors_lock:
                        errors.append(exc)
                finally:
                    inflight.decrement()

        group = ProcessGroup()
        started = time.perf_counter()
        for node in self.nodes.values():
            group.spawn(node_process, node, name=f"reactive-{node.name}")
        for dest, event in initial_events:
            emit(dest, event)

        if not inflight.wait_zero(timeout):
            # Do not leave the node processes running: with the streams
            # closed each one finishes the event in hand, finds its next
            # emission refused or its stream ended, and terminates.
            close_streams()
            raise TimeoutError(
                f"reactive graph did not quiesce within {timeout}s"
            )
        close_streams()
        group.join_all(timeout=timeout)
        if errors:
            raise errors[0]
        wall = time.perf_counter() - started
        counts = {n.name: len(n.handled) for n in self.nodes.values()}
        return ReactiveResult(
            events_handled=sum(counts.values()),
            wall_time=wall,
            per_node_counts=counts,
        )
