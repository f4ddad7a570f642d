"""Per-processor mailboxes with selective typed receive (§3.4.1).

Each virtual processor owns one mailbox.  ``recv`` scans buffered messages
for the first one matching the requested (type, tag, source, group) filter
and suspends until such a message arrives — the *selective receive* the
thesis requires to keep task-parallel and data-parallel traffic disjoint.
A suspended receive registers a waiter, and ``deliver`` hands an arriving
message straight to the oldest waiter that accepts it (docs/transport.md).

``recv_untyped`` takes the oldest message regardless of filters, modelling
the original Cosmic Environment behaviour whose conflicts §3.4.1 analyses.

A mailbox can be *poisoned* (its owner processor died): every blocked
receiver wakes immediately and raises the poison exception instead of
waiting out its deadline — the §4.1.2 discipline of surfacing partial
failure as a value/error rather than a hang.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Hashable, Optional

from repro.status import ProcessorFailedError
from repro.vp.message import Message, MessageType

# Fallback receive deadline; overridable machine-wide via
# ``Machine(default_recv_timeout=...)`` or the REPRO_RECV_TIMEOUT env var.
_RECV_TIMEOUT = 30.0


def default_recv_timeout() -> float:
    """The process-wide default receive deadline.

    ``REPRO_RECV_TIMEOUT`` overrides the built-in 30 s; a malformed value
    is ignored rather than crashing the transport.  A mailbox built
    without a deadline of its own reads it once, when it is built.
    """
    raw = os.environ.get("REPRO_RECV_TIMEOUT")
    if raw:
        try:
            value = float(raw)
            if value > 0:
                return value
        except ValueError:
            pass
    return _RECV_TIMEOUT


class _Waiter:
    """One suspended receive: its filter, and the slot ``deliver`` (or a
    failure) fills before releasing the lock the receiver sleeps on.
    ``describe()`` names the receive; nobody pays for the string until a
    diagnostic or an error message wants it."""

    __slots__ = ("accepts", "source", "describe", "wake", "message", "error")

    def __init__(self, accepts, source: Optional[int], describe) -> None:
        self.accepts = accepts
        self.source = source
        self.describe = describe
        self.wake = threading.Lock()
        self.wake.acquire()
        self.message: Optional[Message] = None
        self.error: Optional[BaseException] = None


class Mailbox:
    """An in-order buffer of messages with selective receive.

    A message is handed over exactly once: ``recv`` takes the oldest
    buffered match, and when there is none it parks a waiter that
    ``deliver`` fills directly — the oldest waiter whose filter accepts
    the message gets it, and only that receiver is woken.
    """

    def __init__(
        self, owner: int, default_timeout: Optional[float] = None
    ) -> None:
        self.owner = owner
        # Resolved once: a suspended receive must not read the environment.
        self.default_timeout = (
            default_recv_timeout() if default_timeout is None
            else default_timeout
        )
        self._buffer: list[Message] = []
        self._lock = threading.Lock()
        self._poison: Optional[BaseException] = None
        self._dead_sources: set[int] = set()
        # Suspended receives in arrival order, keyed by thread ident.  Read
        # by Machine.diagnostics() and the deadlock watchdog's wait-graph
        # builder — a waiter's source lets the watchdog distinguish
        # "waiting on a suspected peer" from a true circular wait.
        self._waiters: dict[int, _Waiter] = {}
        # The machine whose VirtualProcessor built this mailbox, which
        # sets it; the depth and receive-wait metrics go to that machine's
        # observer.  A bare ``Mailbox(owner)`` has none and feeds nothing.
        self.machine = None

    def deliver(self, message: Message) -> None:
        """Called by the machine's transport: hand ``message`` to the
        oldest suspended receive that accepts it, else buffer it."""
        with self._lock:
            self._hand_off(message, len(self._buffer))
            depth = len(self._buffer)
        observer = getattr(self.machine, "_observer", None)
        if observer is not None:
            observer.mailbox_delivered(self.owner, depth)

    def _hand_off(self, message: Message, index: int) -> None:
        """Give ``message`` to the oldest waiter that accepts it, else
        buffer it at ``index``; the lock must be held."""
        for ident, waiter in self._waiters.items():
            if waiter.accepts(message):
                del self._waiters[ident]
                waiter.message = message
                waiter.wake.release()
                return
        self._buffer.insert(index, message)

    # -- failure semantics ---------------------------------------------------

    def _fail_waiters(self, source: Optional[int], error_for) -> None:
        """Wake with ``error_for(waiter)`` every waiter, or with a
        ``source`` only those selecting it; the lock must be held."""
        for ident, waiter in list(self._waiters.items()):
            if source is None or waiter.source == source:
                del self._waiters[ident]
                waiter.error = error_for(waiter)
                waiter.wake.release()

    def poison(self, exc: BaseException) -> None:
        """Mark the mailbox dead: blocked and future receives raise ``exc``."""
        with self._lock:
            self._poison = exc
            self._fail_waiters(None, lambda waiter: exc)

    def unpoison(self) -> None:
        """Clear a previous poisoning (processor revived)."""
        with self._lock:
            self._poison = None

    @property
    def poisoned(self) -> bool:
        return self._poison is not None

    def _source_failed(self, describe: str, source: int) -> BaseException:
        return ProcessorFailedError(
            f"processor {self.owner}: {describe} can never be "
            f"satisfied — source processor {source} failed",
            processor=source,
        )

    def mark_source_dead(self, source: int) -> None:
        """A peer died: wake receivers waiting *specifically* on it.

        Already-buffered messages from the dead peer stay receivable (they
        arrived before the death); only a receive that would otherwise
        suspend on the dead source raises.
        """
        with self._lock:
            self._dead_sources.add(source)
            self._fail_waiters(
                source,
                lambda waiter: self._source_failed(waiter.describe(), source),
            )

    def mark_source_alive(self, source: int) -> None:
        with self._lock:
            self._dead_sources.discard(source)

    def _limit(self, timeout: Optional[float]) -> float:
        return self.default_timeout if timeout is None else timeout

    def blocked_receivers(self) -> dict[int, str]:
        """Snapshot of currently-blocked receives (ident -> description)."""
        return {
            ident: describe
            for ident, (describe, _source)
            in self.blocked_receivers_detailed().items()
        }

    def blocked_receivers_detailed(
        self,
    ) -> dict[int, tuple[str, Optional[int]]]:
        """Like :meth:`blocked_receivers` but with the selective-receive
        source (or None) alongside each description."""
        with self._lock:
            return {
                ident: (waiter.describe(), waiter.source)
                for ident, waiter in self._waiters.items()
            }

    # -- receive -------------------------------------------------------------

    def _receive(
        self,
        accepts,
        source: Optional[int],
        timeout: Optional[float],
        describe,
    ) -> Message:
        """Take the oldest buffered message ``accepts`` passes, or suspend
        until ``deliver`` hands one over; raise on poison, a dead selective
        ``source`` or the deadline.  ``describe()`` names the receive; it
        is called only by a diagnostic snapshot or an error message."""
        observer = getattr(self.machine, "_observer", None)
        t0 = time.perf_counter() if observer is not None else 0.0
        with self._lock:
            if self._poison is not None:
                raise self._poison
            buffer = self._buffer
            for index, message in enumerate(buffer):
                if accepts(message):
                    del buffer[index]
                    break
            else:
                message = None
                if source is not None and source in self._dead_sources:
                    raise self._source_failed(describe(), source)
                ident = threading.get_ident()
                waiter = self._waiters[ident] = _Waiter(
                    accepts, source, describe
                )
        if message is None:
            limit = self._limit(timeout)
            try:
                woken = waiter.wake.acquire(timeout=max(limit, 0.0))
            except BaseException:
                # Interrupted (KeyboardInterrupt on the main thread): this
                # receive takes nothing, so a later deliver must not find
                # its waiter, and a message already handed to it goes
                # back, ahead of everything that arrived since.
                with self._lock:
                    self._waiters.pop(ident, None)
                    handed = waiter.message
                    if handed is not None:
                        self._hand_off(handed, 0)
                raise
            if not woken:
                # Timed out: unregister, unless a deliver (or a failure)
                # filled the slot while we were getting here.
                with self._lock:
                    self._waiters.pop(ident, None)
            message = waiter.message
            if message is None:
                if waiter.error is not None:
                    raise waiter.error
                raise TimeoutError(
                    f"processor {self.owner}: {describe()} timed out "
                    f"after {limit}s"
                )
        if observer is not None:
            observer.mailbox_received(
                self.owner, time.perf_counter() - t0, len(self._buffer)
            )
        return message

    def recv(
        self,
        mtype: Optional[MessageType] = MessageType.PCN,
        tag: Hashable = None,
        source: Optional[int] = None,
        group: Optional[Hashable] = None,
        match_any_tag: bool = False,
        match_any_group: bool = False,
        timeout: Optional[float] = None,
    ) -> Message:
        """Selective receive: first buffered message matching the filter.

        Suspends until a match arrives.  ``mtype=None`` matches any type.
        """

        def accepts(message: Message) -> bool:
            return message.matches(
                mtype, tag, source, group, match_any_tag, match_any_group
            )

        return self._receive(
            accepts,
            source,
            timeout,
            lambda: f"selective recv (type={mtype}, tag={tag!r}, "
            f"source={source}, group={group!r})",
        )

    def recv_untyped(self, timeout: Optional[float] = None) -> Message:
        """Non-selective receive: oldest message, any type/tag/group.

        Models the original untyped message-passing whose interception
        hazard §3.4.1 describes; used only by the conflict experiments.
        """
        return self._receive(
            lambda message: True, None, timeout, lambda: "untyped recv"
        )

    def pending(self) -> int:
        return len(self._buffer)

    def drain(self) -> list[Message]:
        """Remove and return all buffered messages (test/diagnostic aid)."""
        with self._lock:
            out, self._buffer = self._buffer, []
            return out
