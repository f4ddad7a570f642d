"""The simulated multicomputer: a fixed set of virtual processors.

``Machine`` owns the processors, routes point-to-point messages between
their mailboxes, and hosts the server registry (§5.1.1).  It substitutes for
the Symult s2010 / Cosmic Environment of the thesis' testbed; see DESIGN.md
for the substitution argument.

Failure semantics (§4.1.2 discipline): a processor can be marked dead with
:meth:`Machine.fail`.  Its mailbox is poisoned so blocked receivers raise
:class:`~repro.status.ProcessorFailedError` immediately, sends *from* it
raise (a dead node cannot transmit), and sends *to* it raise too: the
failure surfaces at the sender.  A message already past routing when its
destination dies is discarded at delivery and counted in
``dropped_to_dead``.

The transport is a layered fabric: every routed message descends an
ordered **interceptor stack** (``machine.transport_stack``, a
:class:`~repro.vp.fabric.TransportStack`) before final delivery, which is
how fault injection (:mod:`repro.faults`), tracing
(:class:`~repro.vp.fabric.TraceInterceptor`), and traffic metering
(:class:`~repro.vp.fabric.TrafficMeter`) compose without touching user
code or displacing one another.  :meth:`Machine.route` is the single
choke point — mailbox sends, SPMD group traffic, and cross-processor
server requests all pass through it carrying the shared envelope
(``kind``/``trace_id``/``hop`` on :class:`~repro.vp.message.Message`).
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Any, Callable, Hashable, Optional

from repro.pcn.process import thread_stats
from repro.status import ProcessorFailedError
from repro.vp import fabric
from repro.vp.clock import Clock
from repro.vp.fabric import TransportStack
from repro.vp.message import Message, MessageType
from repro.vp.processor import VirtualProcessor
from repro.vp.server import ServerRegistry


def _out_of_range(number: Any, num_nodes: int) -> ValueError:
    return ValueError(f"processor {number} out of range 0..{num_nodes - 1}")


class _HeldDeaths(threading.local):
    """One thread's open :class:`FailureHold` blocks and the deaths they
    hold back (None while there are none)."""

    depth = 0
    numbers: Optional[list] = None


class FailureHold:
    """``with machine.holding_failures:`` — hold back the failure
    listeners of every death this thread causes inside the block (a kill
    fired by one of its sends) and run them, on this thread, when the
    block ends.  The processor is dead at once either way; only its
    listeners wait.

    A sender that holds a lock a listener may need enters this block
    before the lock, so the listener runs after the lock is released: a
    commit sends its replica updates under ``record.lock``, and the
    recovery a kill runs takes ``state.lock``, which a migration holds
    while it waits for that ``record.lock`` (the lock order,
    docs/fault_model.md §9).  Nested blocks notify when the outermost
    ends.  Entered by every commit, so it costs two attribute updates
    when nobody dies."""

    __slots__ = ("machine", "local")

    def __init__(self, machine: "Machine") -> None:
        self.machine = machine
        self.local = _HeldDeaths()

    def __enter__(self) -> None:
        self.local.depth += 1

    def __exit__(self, *exc_info: Any) -> None:
        local = self.local
        local.depth -= 1
        if not local.depth and local.numbers:
            numbers, local.numbers = local.numbers, None
            for number in numbers:
                self.machine._notify_failure(number)


class Machine:
    """A multicomputer of ``num_nodes`` virtual processors."""

    def __init__(
        self,
        num_nodes: int,
        default_recv_timeout: Optional[float] = None,
        clock: Optional[Clock] = None,
    ) -> None:
        if num_nodes < 1:
            raise ValueError("a machine needs at least one processor")
        self.default_recv_timeout = default_recv_timeout
        # The one clock the failure detector, the fault transport and
        # retry read (repro.vp.clock); a test passes a ManualClock.
        self.clock = clock if clock is not None else Clock()
        self._processors = [VirtualProcessor(i, self) for i in range(num_nodes)]
        self.server = ServerRegistry(self)
        # Serialises writers and makes the traffic counters exact.  What
        # every message reads — the failed set, the kind-handler table, the
        # server's capability table — is replaced whole on the rare write
        # (copy-on-write) and read without the lock.
        self._lock = threading.Lock()
        self._failed: frozenset[int] = frozenset()
        self.transport_stack = TransportStack(self._deliver)
        # Final-delivery dispatch by envelope kind: mailbox traffic is the
        # default, ``server_request`` executes at the target, and
        # subsystems may register further kinds (the array manager's
        # ``replica_update``/``recovery``) without touching delivery.
        self._kind_handlers: dict[str, Callable[[Message], None]] = {
            "server_request": self.server._execute,
        }
        self._failure_listeners: list[Callable[[int], None]] = []
        self.holding_failures = FailureHold(self)
        # The installed observability layer (repro.obs.Observer) or None.
        # Instrumentation sites across every layer probe this one attribute
        # and no-op when it is None, keeping the hot path cheap.
        self._observer: Optional[Any] = None
        # The installed failure detector (repro.health.FailureDetector) or
        # None.  When present it is the machine's health authority: planning
        # code consults is_unavailable() (oracle-dead OR detector-dead).
        self._health: Optional[Any] = None
        # Processors added after construction (Machine.add_processor),
        # recorded for diagnostics: elastic membership is inspectable.
        self._added_processors: list[int] = []
        self.routed_count = 0
        self.routed_bytes = 0
        self.dropped_to_dead = 0

    # -- topology ------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """PCN's ``sys:num_nodes``."""
        return len(self._processors)

    def processor(self, number: int) -> VirtualProcessor:
        """Processor ``number``; a number outside ``0..num_nodes - 1`` —
        a negative one included, which list indexing would wrap onto a
        real processor — raises ValueError."""
        nodes = self._processors
        if 0 <= number < len(nodes):
            return nodes[number]
        raise _out_of_range(number, len(nodes))

    def processors(self) -> list[VirtualProcessor]:
        return list(self._processors)

    def add_processor(self) -> int:
        """Grow the machine by one virtual processor at runtime.

        The new VP joins with the next free number, an empty mailbox, and
        no failure history; it is immediately routable (the transport
        stack, kind handlers, and server registry are machine-wide, so no
        per-processor registration is needed) and immediately placeable —
        recovery's spare selection and ``rebalance()`` consider it like
        any original processor.  It learns which peers are already dead,
        so a receive from one fails fast there as on every other node
        (§4.1.2); under the lock, so that a concurrent ``fail`` / ``revive``
        either is replayed here or finds the newcomer in its own sweep.

        Returns the new processor number.
        """
        with self._lock:
            number = len(self._processors)
            node = VirtualProcessor(number, self)
            for dead in self._failed:
                node.mailbox.mark_source_dead(dead)
            self._processors.append(node)
            self._added_processors.append(number)
        return number

    # -- failure semantics ----------------------------------------------------

    def fail(self, number: int) -> None:
        """Mark processor ``number`` dead.

        Poisons its mailbox so every blocked receiver raises
        :class:`ProcessorFailedError` immediately (no hang until the recv
        deadline); later sends/receives/placements involving the node
        raise.  Idempotent: a second ``fail`` of an already-dead
        processor is a no-op, so failure listeners observe
        each death exactly once — at once, or, for a death caused inside a
        ``holding_failures`` block on this thread, when the block ends.
        """
        node = self.processor(number)
        with self._lock:
            if number in self._failed:
                return
            self._failed = self._failed | {number}
        node.mailbox.poison(
            ProcessorFailedError(
                f"processor {number} failed", processor=number
            )
        )
        # Fail-fast for peers: wake any receiver elsewhere that is
        # suspended waiting specifically on the dead node.  Snapshot the
        # processor list — add_processor may grow it concurrently.
        for other in list(self._processors):
            if other.number != number:
                other.mailbox.mark_source_dead(number)
        held = self.holding_failures.local
        if held.depth:
            if held.numbers is None:
                held.numbers = []
            held.numbers.append(number)
            return
        self._notify_failure(number)

    def _notify_failure(self, number: int) -> None:
        with self._lock:
            listeners = list(self._failure_listeners)
        # Notify outside the machine lock: listeners (e.g. the recovery
        # coordinator) route messages of their own.  A listener failure
        # must not corrupt the transport path that triggered the kill.
        for listener in listeners:
            try:
                listener(number)
            except Exception:  # noqa: BLE001
                pass

    def revive(self, number: int) -> None:
        """Bring a failed processor back (fresh mailbox state is *not*
        restored — buffered messages survive; only the dead flag clears)."""
        node = self.processor(number)
        with self._lock:
            self._failed = self._failed - {number}
        node.mailbox.unpoison()
        for other in list(self._processors):
            if other.number != number:
                other.mailbox.mark_source_alive(number)

    def is_failed(self, number: int) -> bool:
        return number in self._failed

    def is_unavailable(self, number: int) -> bool:
        """Oracle-dead *or* declared dead by the installed failure
        detector.  Planning code (recovery spare selection, migration
        membership rewrites, rebalance pools) keys off this so a VP the
        detector has given up on is excluded even though the oracle never
        killed it; hard route semantics (`is_failed`) are unchanged — the
        detector may be wrong, and a misrouted raise would turn a false
        suspicion into a real failure."""
        if self.is_failed(number):
            return True
        health = self._health
        return health is not None and health.is_dead(number)

    def failed_processors(self) -> list[int]:
        return sorted(self._failed)

    def add_failure_listener(self, listener: Callable[[int], None]) -> None:
        """Subscribe to processor deaths; ``listener(number)`` runs
        synchronously inside :meth:`fail`.  Adding the same listener twice
        is a no-op, so nested installations — e.g. two supervised calls
        both installing recovery — never double a death notification.
        Deduplication uses ``==``, not ``is``: each attribute access on a
        bound method builds a fresh object, so identity checks would let
        ``add(obj.handler); add(obj.handler)`` register twice and leave
        ``remove(obj.handler)`` unable to find it."""
        with self._lock:
            if all(fn != listener for fn in self._failure_listeners):
                self._failure_listeners.append(listener)

    def remove_failure_listener(self, listener: Callable[[int], None]) -> None:
        with self._lock:
            self._failure_listeners = [
                fn for fn in self._failure_listeners if fn != listener
            ]

    def check_alive(self, processors) -> None:
        """Raise :class:`ProcessorFailedError` if any listed VP is dead."""
        failed = self._failed
        if not failed:
            return
        dead = [int(p) for p in processors if int(p) in failed]
        if dead:
            raise ProcessorFailedError(
                f"processor(s) {dead} failed", processor=dead[0]
            )

    # -- transport -----------------------------------------------------------

    def _deliver(self, message: Message) -> None:
        """Final delivery — beneath the interceptor stack.  A message whose
        destination died after it was routed (an interceptor held it)
        vanishes here, counted in ``dropped_to_dead``: the destination can
        never consume it."""
        dest = message.dest
        if dest in self._failed:
            with self._lock:
                self.dropped_to_dead += 1
            return
        handler = self._kind_handlers.get(message.kind)
        if handler is not None:
            handler(message)
            return
        self.processor(dest).mailbox.deliver(message)

    def register_kind_handler(
        self, kind: str, handler: Callable[[Message], None]
    ) -> None:
        """Route messages of envelope ``kind`` to ``handler`` at final
        delivery instead of the destination mailbox."""
        with self._lock:
            self._kind_handlers = {**self._kind_handlers, kind: handler}

    def route(self, message: Message) -> None:
        """The single routing choke point: validate, stamp the envelope,
        account, and dispatch down the interceptor stack to delivery.

        Same-node fast path: with no interceptors installed nothing
        between route and delivery can observe the envelope, so stamping
        it and the interceptor dispatch are pure overhead — ``send`` and
        ``route`` skip both.  Any installed interceptor (tracer, meter,
        fault plan, observer) disables the path by making the stack
        non-empty."""
        source = message.source
        dest = message.dest
        n = len(self._processors)
        if not (0 <= dest < n and 0 <= source < n):
            raise _out_of_range(source if 0 <= dest < n else dest, n)
        failed = self._failed
        if failed:
            if source in failed:
                raise ProcessorFailedError(
                    f"send from failed processor {source}", processor=source
                )
            if dest in failed:
                raise ProcessorFailedError(
                    f"send to failed processor {dest}", processor=dest
                )
        stack = self.transport_stack
        direct = source == dest and not stack._layers
        if message.trace_id is None and not direct:
            # A bare message from a direct caller: stamp it here.  ``send``
            # builds its messages already stamped, so in-tree traffic
            # never takes this copy.  It keeps ``seq``: the same message.
            trace_id, hop, span_id = fabric.current_envelope()
            message = dataclasses.replace(
                message, trace_id=trace_id, hop=hop, span_id=span_id
            )
        nbytes = message.nbytes()
        # The one lock acquisition of a delivered message: the message
        # and byte totals advance together (the cost model stays exact).
        with self._lock:
            self.routed_count += 1
            self.routed_bytes += nbytes
        if direct:
            self._deliver(message)
        else:
            stack._forward(message)

    def send(
        self,
        source: int,
        dest: int,
        payload: Any,
        mtype: MessageType = MessageType.PCN,
        tag: Hashable = None,
        group: Optional[Hashable] = None,
        kind: str = "user",
    ) -> None:
        """Build one message, stamped with the sender's envelope (trace
        id, hop, span — see :func:`fabric.current_envelope`), and route it.
        A message ``route`` will deliver on its same-node fast path stays
        unstamped: nothing can observe its envelope."""
        if source == dest and not self.transport_stack._layers:
            trace_id, hop, span_id = None, 0, None
        else:
            trace_id, hop, span_id = fabric.current_envelope()
        # Positional, in field order (seq None: the next of the sequence):
        # on the one construction site every message passes, matching ten
        # keywords costs as much again as building the message.
        self.route(
            Message(
                source, dest, payload, mtype, tag, group, None,
                kind, trace_id, hop, span_id,
            )
        )

    # -- traffic accounting ----------------------------------------------------

    def traffic_snapshot(self) -> dict[str, int]:
        """Exact message/byte counters (GIL-independent cost model)."""
        with self._lock:
            return {
                "messages": self.routed_count,
                "bytes": self.routed_bytes,
            }

    def reset_traffic(self) -> None:
        with self._lock:
            self.routed_count = 0
            self.routed_bytes = 0

    # -- observability ---------------------------------------------------------

    def observe(self, **options: Any) -> Any:
        """Enable runtime telemetry; returns the installed
        :class:`~repro.obs.observer.Observer`.

        One call turns on the causal span layer and the per-message event
        ring (deadlock dumps land there too); it counts nothing, and
        :meth:`diagnostics` reads the same, observed or not.  Options are forwarded to
        the Observer (``max_spans=``, ``max_events=``).  Idempotent: a
        second call returns the already-installed observer.
        ``observer.close()`` removes every hook.
        """
        if self._observer is not None:
            return self._observer
        from repro.obs.observer import Observer

        return Observer(self, **options).install()

    @property
    def observer(self) -> Optional[Any]:
        return self._observer

    # -- diagnostics -----------------------------------------------------------

    def diagnostics(self) -> dict[str, Any]:
        """A snapshot of machine health for operators and tests.

        Reports dead processors, per-node pending (undelivered-to-user)
        message counts, currently-blocked receivers, live process counts
        and what processes have cost in OS threads (interpreter-wide) —
        the §4.1.2 goal of making partial failure observable.
        """
        pending = {}
        blocked = []
        live = {}
        for node in list(self._processors):
            count = node.mailbox.pending()
            if count:
                pending[node.number] = count
            for ident, describe in node.mailbox.blocked_receivers().items():
                blocked.append(
                    {
                        "processor": node.number,
                        "thread": ident,
                        "waiting_for": describe,
                    }
                )
            alive = node.live_process_count()
            if alive:
                live[node.number] = alive
        manager = getattr(self, "_array_manager", None)
        arrays = (
            manager.durability_diagnostics() if manager is not None else {}
        )
        observability = (
            self._observer.diagnostics()
            if self._observer is not None
            else {"enabled": False}
        )
        perf_layer = getattr(self, "_perf", None)
        perf = (
            perf_layer.diagnostics()
            if perf_layer is not None
            else {"enabled": False}
        )
        health = (
            self._health.snapshot()
            if self._health is not None
            else {"enabled": False}
        )
        with self._lock:
            return {
                "num_nodes": self.num_nodes,
                "failed": sorted(self._failed),
                "added_processors": list(self._added_processors),
                "pending_messages": pending,
                "blocked_receivers": blocked,
                "live_processes": live,
                "processes": thread_stats(),
                "routed_messages": self.routed_count,
                "routed_bytes": self.routed_bytes,
                "dropped_to_dead": self.dropped_to_dead,
                "arrays": arrays,
                "observability": observability,
                "perf": perf,
                "health": health,
            }

    # -- program placement -----------------------------------------------------

    def run_on(self, processor: int, target: Callable[..., Any], *args: Any,
               **kwargs: Any) -> Any:
        """Execute ``target`` on a processor and wait for the result
        (PCN's ``@Processor`` annotation for program calls)."""
        return self.processor(processor).run(target, *args, **kwargs)

    def __repr__(self) -> str:
        return f"<Machine num_nodes={self.num_nodes}>"
