"""The write-behind coalescing buffer (hot-path batching layer).

The thesis' array manager services every element write as one synchronous
server hop (§5.1.1) — correct, and expensive: a 64-element initialisation
loop costs 64 routed messages plus 64 replica updates per backup.  The
:class:`WriteCoalescer` turns that traffic pattern into a *write-behind
buffer*: element writes are validated eagerly, acknowledged immediately,
and queued per ``(array, section)``; a queue drains as **one** fused
``kind="array_batch"`` message that the owner applies atomically under its
record lock (one lock acquisition, one replica update per backup, one
message — per batch instead of per write).

This module also defines the array layer's one **mutation vocabulary**: a
mutation is a ``(target, value)`` pair — ``target is None`` writes the
whole section interior, otherwise ``target`` is an interior index tuple
of ints and/or slices.  A queued write, an :class:`ArrayBatch`, a
:class:`~repro.arrays.durability.ReplicaUpdate` and the owner's commit
(:meth:`~repro.arrays.manager.ArrayManager._commit`) all carry, price
(:func:`mutations_nbytes`) and replay (:func:`apply_mutations`) the same
pairs, so ``array_batch`` and ``replica_update`` say the same thing on
the wire.

Sequential equivalence (§3.3) is preserved by *flush points*: any
operation that could observe a queued write forces the queue out first —

* reads of a dirty section (``read_element``/``read_region``/local reads),
* region writes, for the sections they touch,
* barriers and collectives (:mod:`repro.spmd.collectives`),
* checkpoint/restore/verify (:mod:`repro.arrays.manager`),
* distributed-call boundaries (:func:`repro.calls.do_all.do_all`),
* size/byte thresholds (``flush_ops``/``flush_bytes``).

A flush point that is itself a request to the section carries its queue
(:meth:`WriteCoalescer.carry`): an element read or a region share made on
the processor the queue was written on takes the batch with it, and the
holder applies it in the request's own commit — one message, not two.

A program that writes then reads on one logical thread of control
therefore always reads its own writes; concurrent writers were never
ordered in the first place (§3.2.1.5 leaves racing element writes
indeterminate), so batching them does not weaken the model.

Failure semantics: a batch is retried **as one unit**, by the perf
layer's route (:meth:`repro.perf.PerfLayer.post` / ``secure``), the one
route a halo strip takes too.  Every attempt ships the same per-queue
sequence number, so a duplicated or delayed original (fault injection,
:mod:`repro.faults`) can never re-apply — the owner tracks the last
applied sequence per queue and answers a repeated batch ``"ok"`` without
applying it again.  A batch the section's holder refuses (``"not_found"``,
``"stale"``) or does not answer in time is re-sent to the owner read again
from the durability membership (recovery may have adopted the section
onto a spare); a batch that never gets ``"ok"`` — its owner died with no
survivor, or the route ran out of re-sends — is counted in
``lost_batches`` and surfaced through ``Machine.diagnostics()["perf"]``.
A carried batch that does not get ``"ok"`` inside its request is handed
to the same route afterwards, sequence number and all (:meth:`settle`).
"""

from __future__ import annotations

import copy
import threading
from typing import Any, Iterable, Optional

from repro.obs.spans import NOOP_SPAN, span as obs_span
from repro.pcn.defvar import DefVar
from repro.status import ProcessorFailedError, SingleAssignmentError

ARRAY_BATCH_KIND = "array_batch"


def define_once(var: Optional[DefVar], value: Any) -> None:
    """Define ``var`` unless a duplicate delivery already did."""
    if var is None:
        return
    try:
        var.define(value)
    except SingleAssignmentError:
        pass


def mutations_nbytes(mutations: Iterable) -> int:
    """Simulated wire size of a mutation list: each value's ``nbytes``,
    8 for a scalar."""
    return sum(int(getattr(value, "nbytes", 8)) for _target, value in mutations)


def apply_mutations(interior: Any, mutations: Iterable) -> None:
    """Replay mutations, in order, into a section interior (the owner's
    storage or a backup's mirror)."""
    for target, value in mutations:
        if target is None:
            interior[...] = value
        else:
            interior[target] = value


class ArrayBatch:
    """The payload of one ``array_batch`` message: a unit of the perf
    layer's route for section ``section``.

    ``ops`` is an ordered list of ``(target, value)`` mutations applied
    atomically under the owner's record lock.  ``seq`` is the per-queue
    sequence number used for exactly-once application under
    retry/duplication; ``done`` is the completion variable the flushing
    thread waits on.
    """

    __slots__ = ("array_id", "section", "seq", "ops", "done")
    kind = ARRAY_BATCH_KIND

    def __init__(
        self,
        array_id: Any,
        section: int,
        seq: int,
        ops: list,
        done: Optional[DefVar],
    ) -> None:
        self.array_id = array_id
        self.section = section
        self.seq = seq
        self.ops = ops
        self.done = done

    @property
    def nbytes(self) -> int:
        return mutations_nbytes(self.ops) + 16

    def label(self, dest: int) -> str:
        """The name of ``done`` while its flusher waits on ``dest``."""
        return f"array_batch[{self.seq}]@{dest}"

    def __repr__(self) -> str:
        return (
            f"<ArrayBatch {self.array_id} section={self.section} "
            f"seq={self.seq} ops={len(self.ops)}>"
        )


class _Pending:
    """One queue of unflushed writes for an ``(array, section)`` key."""

    __slots__ = ("ops", "nbytes", "source")

    def __init__(self, source: int) -> None:
        self.ops: list = []
        self.nbytes = 0
        self.source = source


class WriteCoalescer:
    """Machine-wide write-behind buffer for distributed-array writes."""

    def __init__(
        self, perf: Any, flush_ops: int = 32, flush_bytes: int = 1 << 16
    ) -> None:
        # The perf layer whose route ships the batches.
        self.perf = perf
        self.machine = perf.machine
        self.flush_ops = flush_ops
        self.flush_bytes = flush_bytes
        self._lock = threading.Lock()
        self._pending: dict[tuple, _Pending] = {}
        # Per-key flush serialisation: batch N must complete (or be given
        # up on) before batch N+1 drains, so reordered application of two
        # overlapping batches cannot resurrect older data.
        self._flush_locks: dict[tuple, threading.Lock] = {}
        self._next_seq: dict[tuple, int] = {}
        self._applied_seq: dict[tuple, int] = {}
        # The flush locks held by carried batches until they settle.
        self._carrying: dict[tuple, threading.Lock] = {}
        # Counters surfaced in Machine.diagnostics()["perf"].
        self.enqueued_writes = 0
        self.flushes = 0
        self.flushed_ops = 0
        self.inline_batches = 0
        self.routed_batches = 0
        self.carried_batches = 0
        self.retries = 0
        self.lost_batches = 0

    # -- enqueue ---------------------------------------------------------------

    def enqueue(
        self,
        array_id: Any,
        section: int,
        target: Any,
        value: Any,
        source: int,
    ) -> None:
        """Queue one validated write, priced as :func:`mutations_nbytes`
        prices it; flush on threshold crossing."""
        key = (array_id, section)
        with self._lock:
            pending = self._pending.get(key)
            if pending is None:
                pending = self._pending[key] = _Pending(source)
            pending.ops.append((target, value))
            pending.nbytes += int(getattr(value, "nbytes", 8))
            self.enqueued_writes += 1
            over = (
                len(pending.ops) >= self.flush_ops
                or pending.nbytes >= self.flush_bytes
            )
        if over:
            self._flush_key(key, reason="threshold")

    # -- flush -----------------------------------------------------------------

    def flush(
        self, array_id: Any = None, section: Optional[int] = None
    ) -> int:
        """Drain pending writes (all, one array's, or one section's).

        Returns the number of writes flushed.  Cheap when nothing is
        pending — every flush point calls this unconditionally — and one
        section's flush looks up its one queue instead of scanning them.
        """
        with self._lock:
            pending = self._pending
            if not pending:
                return 0
            if array_id is not None and section is not None:
                key = (array_id, section)
                keys = [key] if key in pending else []
            else:
                keys = [
                    key
                    for key in pending
                    if (array_id is None or key[0] == array_id)
                    and (section is None or key[1] == section)
                ]
        total = 0
        for key in keys:
            total += self._flush_key(key, reason="forced")
        return total

    def discard(self, array_id: Any) -> int:
        """Forget a freed array: its pending writes can never land, and —
        ArrayIDs are never reused, and a late batch for a freed array
        answers ``"not_found"`` before it reaches :meth:`should_apply` —
        neither can its per-queue sequencing state be needed again."""
        with self._lock:
            keys = [key for key in self._pending if key[0] == array_id]
            dropped = sum(len(self._pending.pop(k).ops) for k in keys)
            for table in (self._flush_locks, self._next_seq, self._applied_seq):
                for key in [k for k in table if k[0] == array_id]:
                    del table[key]
        return dropped

    def pending_ops(self, array_id: Any = None) -> int:
        with self._lock:
            return sum(
                len(p.ops)
                for key, p in self._pending.items()
                if array_id is None or key[0] == array_id
            )

    # -- exactly-once bookkeeping ---------------------------------------------

    def should_apply(self, key: tuple, seq: int) -> bool:
        """Owner-side dedup: False for a repeated/late batch delivery."""
        with self._lock:
            if seq <= self._applied_seq.get(key, 0):
                return False
            self._applied_seq[key] = seq
            return True

    # -- internals -------------------------------------------------------------

    def _flush_lock(self, key: tuple) -> threading.Lock:
        with self._lock:
            lock = self._flush_locks.get(key)
            if lock is None:
                lock = self._flush_locks[key] = threading.Lock()
            return lock

    def _pop(self, key: tuple) -> Optional[tuple]:
        """``(batch, source)``: ``key``'s queue popped as its next batch,
        numbered in the queue's sequence, and the processor it was written
        on; None when nothing is queued.  The one way a queue leaves the
        coalescer, by the route or carried; the caller holds the key's
        flush lock."""
        with self._lock:
            pending = self._pending.pop(key, None)
            if pending is None:
                return None
            seq = self._next_seq.get(key, 0) + 1
            self._next_seq[key] = seq
        batch = ArrayBatch(key[0], key[1], seq, pending.ops, DefVar())
        return batch, pending.source

    def _flush_key(self, key: tuple, reason: str) -> int:
        with self._flush_lock(key):
            popped = self._pop(key)
            if popped is None:
                return 0
            self._ship(*popped, reason)
            return len(popped[0].ops)

    def _ship(self, batch: ArrayBatch, source: int, reason: str) -> None:
        """Deliver one batch by the perf layer's route; a batch that does
        not get ``"ok"`` is lost.  A carried batch the route takes over
        (``reason="carried"``) is counted a retry, not a batch sent."""
        machine = self.machine
        perf = self.perf
        # A queue whose writer's processor has died since is orphaned:
        # the owner originates its batch.
        if machine.is_failed(source):
            source = None
        # The span's attributes are built only when someone records them.
        flush_span = NOOP_SPAN if machine._observer is None else obs_span(
            machine,
            "perf:flush",
            array=str(batch.array_id.as_tuple()),
            section=batch.section,
            ops=len(batch.ops),
            reason=reason,
        )
        with flush_span as span:
            try:
                dest = perf.post(batch, source)
                if reason == "carried":
                    self.retries += 1
                elif dest is None:
                    self.inline_batches += 1
                else:
                    self.routed_batches += 1
                answer = perf.secure(batch, source, dest, self)
            except ProcessorFailedError:
                answer = None
            if answer != "ok":
                self.lost_batches += 1
                span.annotate(outcome="lost")
                return
            self.flushes += 1
            self.flushed_ops += len(batch.ops)

    # -- carried batches -------------------------------------------------------

    def carry(
        self, array_id: Any, section: int, source: Optional[int]
    ) -> Optional[ArrayBatch]:
        """The batch a request for ``section`` that leaves ``source``
        carries to the section's holder, or None.

        The section's queue is popped and numbered as a flush pops it, and
        its flush lock stays held until :meth:`settle`, as a flush holds it
        until its batch is answered.  Only a queue written on ``source`` is
        carried: one written on another processor, or any queue when
        ``source`` is None (an unplaced caller, whose requests run in place
        and would take the batch off the wire), is flushed by the route
        here instead and None returned.
        """
        key = (array_id, section)
        # Probed without the machine-wide lock: a dict lookup is atomic.
        # With no queue there is nothing to carry, but another thread may
        # have popped the queue and still be landing it, under the key's
        # flush lock; then the request waits for it below, so it sees
        # every write its own thread queued before it.  A write queued at
        # this moment on another thread is not ordered before the request
        # either way.
        if key not in self._pending:
            held = self._flush_locks.get(key)
            if held is None or not held.locked():
                return None
        lock = self._flush_lock(key)
        lock.acquire()
        popped = self._pop(key)
        if popped is not None and popped[1] == source:
            self._carrying[key] = lock
            self.carried_batches += 1
            return popped[0]
        try:
            if popped is not None:
                self._ship(*popped, "forced")
        finally:
            lock.release()
        return None

    def settle(self, batch: ArrayBatch, source: int) -> None:
        """Close a carried batch once its request has returned, however it
        returned: flushed when the holder answered ``"ok"``, otherwise
        handed to the route with its sequence number — refused, never
        answered, or its request raised — so retries, ``lost_batches`` and
        exactly-once stay the route's.  Then its flush lock is released."""
        key = (batch.array_id, batch.section)
        try:
            done = batch.done
            if done.data() and done.peek() == "ok":
                self.flushes += 1
                self.flushed_ops += len(batch.ops)
            else:
                batch = copy.copy(batch)
                batch.done = DefVar()
                self._ship(batch, source, "carried")
        finally:
            self._carrying.pop(key).release()

    def diagnostics(self) -> dict:
        with self._lock:
            return {
                "pending_writes": sum(
                    len(p.ops) for p in self._pending.values()
                ),
                "enqueued_writes": self.enqueued_writes,
                "flushes": self.flushes,
                "flushed_ops": self.flushed_ops,
                "inline_batches": self.inline_batches,
                "routed_batches": self.routed_batches,
                "carried_batches": self.carried_batches,
                "retries": self.retries,
                "lost_batches": self.lost_batches,
            }
