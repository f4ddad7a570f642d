"""Fault-injecting interceptor for the machine's transport stack.

:class:`FaultyTransport` is one layer of the machine's interceptor stack
(:class:`~repro.vp.fabric.TransportStack`): every routed message passes
through :meth:`__call__`, which consults the
:class:`~repro.faults.plan.FaultPlan` and then drops, duplicates, delays,
or reorders the message — or forwards it untouched to the layers below.
Kill specs fire here too: after a processor's Nth observed send (routed
from it) or receive (delivered to it), the transport calls
:meth:`Machine.fail` on it.

The interceptor is composable with every existing benchmark and test —
and with other interceptors: install it (or use the context-manager form)
alongside a :class:`~repro.vp.fabric.TraceInterceptor` or
:class:`~repro.vp.fabric.TrafficMeter` and run unchanged workloads;
uninstalling removes only this layer, leaving the rest of the stack as
it was.

Implementation notes:

* *reorder* holds a message back and releases it after the next routed
  message; a short fallback timer flushes a held message when traffic
  stops, so no message is ever lost to reordering.
* *delay* re-delivers on a timer; :meth:`flush` forces all pending
  delayed/held messages through (uninstall does this automatically).

Both timers are set on the machine's clock (``machine.clock``), so under a
:class:`~repro.vp.clock.ManualClock` a delayed or held message arrives
when the test advances time past it.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import Optional

from repro.faults.partition import PartitionPlan
from repro.faults.plan import FaultPlan
from repro.vp.clock import Timer
from repro.vp.machine import Machine
from repro.vp.message import Message

_REORDER_FLUSH_SECONDS = 0.05


@dataclass
class FaultStats:
    """Counts of injected faults (exact, lock-protected)."""

    routed: int = 0
    delivered: int = 0
    dropped: int = 0
    duplicated: int = 0
    delayed: int = 0
    reordered: int = 0
    partitioned: int = 0
    killed: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "routed": self.routed,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "duplicated": self.duplicated,
            "delayed": self.delayed,
            "reordered": self.reordered,
            "partitioned": self.partitioned,
            "killed": list(self.killed),
        }


class FaultyTransport:
    """Stack interceptor applying plan-driven fault injection."""

    def __init__(
        self,
        machine: Machine,
        plan: FaultPlan,
        partitions: Optional[PartitionPlan] = None,
    ) -> None:
        self.machine = machine
        self.plan = plan
        self.partitions = partitions
        self.stats = FaultStats()
        self._lock = threading.Lock()
        self._channel_ordinals: dict[tuple[int, int], int] = {}
        self._send_counts: dict[int, int] = {}
        self._recv_counts: dict[int, int] = {}
        self._fired_kills: set = set()
        self._held: Optional[Message] = None
        self._held_timer: Optional[Timer] = None
        self._pending_delays: dict[int, tuple[Message, Timer]] = {}
        self._delay_ids = itertools.count()
        self._installed = False

    # -- lifecycle ----------------------------------------------------------

    def install(self) -> "FaultyTransport":
        if not self._installed:
            self.machine.transport_stack.push(self)
            self._installed = True
        return self

    def uninstall(self) -> None:
        if self._installed:
            self.machine.transport_stack.remove(self)
            self._installed = False
        self.flush()

    def __enter__(self) -> "FaultyTransport":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # -- transport hook ------------------------------------------------------

    def __call__(self, message: Message, forward=None) -> None:
        plan = self.plan
        # Partition check first: a message into a cable break never even
        # reaches the lossy-network dice.  (The plan's own lock guards its
        # cuts; ours guards the stats/ordinal state.)
        severed = (
            self.partitions.severs(message.source, message.dest)
            if self.partitions is not None
            else None
        )
        with self._lock:
            self.stats.routed += 1
            channel = (message.source, message.dest)
            ordinal = self._channel_ordinals.get(channel, 0)
            self._channel_ordinals[channel] = ordinal + 1
            decision = plan.decide(message, ordinal)
            held, self._held = self._held, None
            if self._held_timer is not None:
                self._held_timer.cancel()
                self._held_timer = None

        kills: list[int] = []
        deliver_now: list[Message] = []

        if severed is not None:
            with self._lock:
                self.stats.partitioned += 1
        elif decision.drop:
            with self._lock:
                self.stats.dropped += 1
        elif decision.delay:
            with self._lock:
                self.stats.delayed += 1
            self._schedule_delay(message)
        elif decision.reorder:
            # Hold this message; it will follow the next routed message
            # (or the flush timer, whichever comes first).
            with self._lock:
                self.stats.reordered += 1
                self._held = message
                self._held_timer = self.machine.clock.call_later(
                    _REORDER_FLUSH_SECONDS, self._flush_held
                )
        else:
            deliver_now.append(message)
            if decision.duplicate:
                with self._lock:
                    self.stats.duplicated += 1
                deliver_now.append(message)

        if held is not None:
            deliver_now.append(held)

        for msg in deliver_now:
            self._deliver(msg)

        # Kill bookkeeping happens after delivery: "dies after its Nth
        # send/receive" means the Nth event completes, then the VP is dead.
        with self._lock:
            sends = self._send_counts.get(message.source, 0) + 1
            self._send_counts[message.source] = sends
            recvs = self._recv_counts.get(message.dest, 0) + 1
            self._recv_counts[message.dest] = recvs
            for spec in plan.kills:
                if spec in self._fired_kills:
                    continue
                if spec.on == "send" and spec.processor == message.source:
                    if sends >= spec.after:
                        self._fired_kills.add(spec)
                        kills.append(spec.processor)
                elif spec.on == "recv" and spec.processor == message.dest:
                    if recvs >= spec.after:
                        self._fired_kills.add(spec)
                        kills.append(spec.processor)
        for proc in kills:
            with self._lock:
                self.stats.killed.append(proc)
            self.machine.fail(proc)

    # -- delivery helpers ----------------------------------------------------

    def _deliver(self, message: Message) -> None:
        # All deliveries (immediate and timer-driven) go through the
        # layers *below* this interceptor, resolved at delivery time —
        # so a meter beneath us counts surviving messages even when the
        # stack changed between hold and release.
        with self._lock:
            self.stats.delivered += 1
        self.machine.transport_stack.forward_from(self, message)

    def _schedule_delay(self, message: Message) -> None:
        delay_id = next(self._delay_ids)

        def fire() -> None:
            with self._lock:
                entry = self._pending_delays.pop(delay_id, None)
            if entry is not None:
                self._deliver(entry[0])

        with self._lock:
            timer = self.machine.clock.call_later(self.plan.delay_seconds, fire)
            self._pending_delays[delay_id] = (message, timer)

    def _flush_held(self) -> None:
        with self._lock:
            held, self._held = self._held, None
            self._held_timer = None
        if held is not None:
            self._deliver(held)

    def flush(self) -> None:
        """Force every held/delayed message through immediately."""
        with self._lock:
            pending = list(self._pending_delays.values())
            self._pending_delays.clear()
        for message, timer in pending:
            timer.cancel()
            self._deliver(message)
        self._flush_held()
