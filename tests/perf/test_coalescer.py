"""The write-behind coalescer: batching, flush points, and equivalence.

The §3.3 contract under test: a program whose writes ride the
write-behind buffer must be observationally equivalent to one whose
writes the owner services one by one (§5.1.1) at every point where the
writes *could* be observed — reads, collectives, checkpoints, and
distributed-call boundaries all force the queue out first.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro.arrays import am_user, am_util
from repro.arrays.manager import get_array_manager
from repro.calls import Local, distributed_call
from repro.core.darray import DistributedArray
from repro.pcn import defvar
from repro.perf import get_perf_layer
from repro.status import ProcessorFailedError, Status
from repro.vp.machine import Machine


@pytest.fixture
def m8():
    machine = Machine(8)
    am_util.load_all(machine)
    return machine


def make_array(machine, n=16, owners=4, **kwargs):
    procs = am_util.node_array(0, 1, owners)
    return DistributedArray.create(
        machine, "double", (n,), procs, ["block"], **kwargs
    )


class TestBatching:
    def test_element_writes_are_queued_not_routed(self, m8):
        arr = make_array(m8)
        m8.reset_traffic()
        for i in range(8):
            arr[i] = float(i)
        perf = get_perf_layer(m8)
        # Below the flush threshold nothing has shipped: the writes sit
        # in the buffer and no array traffic was routed.
        assert perf.coalescer.pending_ops(arr.array_id) == 8
        assert m8.traffic_snapshot()["messages"] == 0

    def test_flush_ships_one_batch_per_dirty_section(self, m8):
        arr = make_array(m8, n=16, owners=4)
        for i in range(16):
            arr[i] = float(i)
        m8.reset_traffic()
        flushed = am_user.flush_writes(m8)
        assert flushed == 16
        # Four dirty sections; the section owned by the requesting node
        # (processor 0) applies inline, so three batches route.
        assert m8.traffic_snapshot()["messages"] == 3
        assert arr.to_numpy().tolist() == [float(i) for i in range(16)]

    def test_threshold_forces_flush(self, m8):
        arr = make_array(m8, n=64, owners=1)
        perf = get_perf_layer(m8)
        perf.coalescer.flush_ops = 4
        for i in range(8):
            arr[i] = 1.0
        # Two threshold crossings -> at most 4 writes still pending.
        assert perf.coalescer.pending_ops(arr.array_id) < 4 + 1
        assert perf.coalescer.flushes >= 2

    def test_one_cell_region_write_answers_from_the_holder(self, m8):
        """The synchronous status a queued element write does not give is
        a one-cell region write's: its request carries the section's
        queue, the holder commits both before it answers, and nothing is
        left to flush."""
        arr = make_array(m8, n=16, owners=4)
        coalescer = get_perf_layer(m8).coalescer
        arr[4] = -1.0  # section 1, owned by processor 1
        assert coalescer.pending_ops(arr.array_id) == 1
        status = am_user.write_region(
            m8, arr.array_id, [(5, 6)], np.array([5.0])
        )
        assert status is Status.OK
        assert coalescer.pending_ops(arr.array_id) == 0
        assert coalescer.carried_batches == 1
        section, st = am_user.find_local(m8, arr.array_id, processor=1)
        assert st is Status.OK
        assert section.interior()[:2].tolist() == [-1.0, 5.0]

    def test_statuses_match_per_write_path(self, m8):
        arr = make_array(m8)
        aid = arr.array_id
        assert am_user.write_element(m8, aid, (0,), 1.0) is Status.OK
        assert am_user.write_element(m8, aid, (99,), 1.0) is Status.INVALID
        assert am_user.write_element(m8, aid, (0,), "x") is Status.INVALID
        from repro.arrays.record import ArrayID

        assert (
            am_user.write_element(m8, ArrayID(0, 999), (0,), 1.0)
            is Status.NOT_FOUND
        )


class TestFlushPoints:
    def test_read_element_flushes_dirty_section(self, m8):
        arr = make_array(m8)
        arr[5] = 7.5
        assert arr[5] == 7.5  # read-your-writes through the flush

    def test_racing_writers_each_read_their_own_writes(self, m8):
        """Four threads, one cell each, write and read back cells of one
        remote section, switched every microsecond.  Another thread's
        request may have popped the queue holding this thread's write and
        still be landing it when this thread reads: the read waits for
        that batch instead of finding no queue and reading the old value,
        so every thread reads its own writes (§3.3)."""
        arr = make_array(m8, n=16, owners=4)  # cells 12..15 on processor 3
        wrong = []

        def writer(cell):
            for value in range(200):
                arr[cell] = float(value)
                if arr[cell] != value:
                    wrong.append((cell, value))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=writer, args=(12 + k,))
                for k in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert wrong == []
        assert [arr[c] for c in range(12, 16)] == [199.0] * 4

    def test_read_region_flushes(self, m8):
        arr = make_array(m8, n=16, owners=4)
        for i in range(16):
            arr[i] = float(i)
        assert arr.read_region([(0, 16)]).tolist() == [
            float(i) for i in range(16)
        ]

    def test_find_local_flushes(self, m8):
        arr = make_array(m8, n=16, owners=4)
        for i in range(16):
            arr[i] = float(i)
        section, st = am_user.find_local(m8, arr.array_id, processor=2)
        assert st is Status.OK
        assert section.interior().tolist() == [8.0, 9.0, 10.0, 11.0]

    def test_region_write_orders_after_queued_element_writes(self, m8):
        arr = make_array(m8, n=16, owners=4)
        for i in range(16):
            arr[i] = 1.0
        arr.from_numpy(np.full(16, 2.0))  # region write = ordering barrier
        assert arr.to_numpy().tolist() == [2.0] * 16

    def test_collective_flushes(self, m8):
        from repro.spmd.collectives import barrier
        from repro.spmd.comm import GroupComm

        arr = make_array(m8, n=16, owners=4)
        arr[0] = 3.0
        perf = get_perf_layer(m8)
        assert perf.coalescer.pending_ops(arr.array_id) == 1
        comm = GroupComm(m8, [0], 0, ("test", "flush", 0))
        barrier(comm)
        assert perf.coalescer.pending_ops(arr.array_id) == 0
        assert arr[0] == 3.0

    def test_distributed_call_flushes(self, m8):
        procs = am_util.node_array(0, 1, 4)
        arr = make_array(m8, n=16, owners=4)
        for i in range(16):
            arr[i] = float(i)

        def body(ctx, section):
            section.interior()[...] += 100.0

        result = distributed_call(m8, procs, body, [Local(arr.array_id)])
        assert result.status is Status.OK
        assert arr.to_numpy().tolist() == [100.0 + i for i in range(16)]

    def test_checkpoint_includes_queued_writes(self, m8):
        arr = make_array(m8, n=16, owners=4)
        for i in range(16):
            arr[i] = float(i)
        snapshot = arr.checkpoint()
        assert snapshot.assemble().tolist() == [float(i) for i in range(16)]

    def test_free_discards_pending_writes(self, m8):
        arr = make_array(m8)
        arr[0] = 1.0
        perf = get_perf_layer(m8)
        assert perf.coalescer.pending_ops(arr.array_id) == 1
        arr.free()
        assert perf.coalescer.pending_ops(arr.array_id) == 0

    def test_explicit_flush_helper(self, m8):
        arr = make_array(m8)
        arr[1] = 4.0
        assert arr.flush() == 1
        assert arr.flush() == 0


class TestDiagnostics:
    def test_perf_counters_in_machine_diagnostics(self, m8):
        arr = make_array(m8, n=16, owners=4)
        for i in range(16):
            arr[i] = float(i)
        am_user.flush_writes(m8)
        perf = m8.diagnostics()["perf"]
        assert perf["enabled"]
        assert perf["flushes"] >= 1
        assert perf["coalesced_writes"] == 16

    def test_flush_span_annotated(self, m8):
        with m8.observe() as observer:
            arr = make_array(m8, n=16, owners=4)
            arr[0] = 1.0
            am_user.flush_writes(m8)
            spans = [
                s for s in observer.recorder.spans()
                if s["name"] == "perf:flush"
            ]
            assert spans and spans[0]["attrs"]["ops"] == 1


class TestDeadOwner:
    @pytest.mark.parametrize("queued", [True, False])
    def test_write_to_dead_owner_raises_at_once(self, monkeypatch, queued):
        # Queued element write or synchronous one-cell region write: each
        # checks its owner's liveness before it queues or sends.  A write
        # nobody answers would wait out the DefVar deadline; a short one
        # keeps that failure quick.
        monkeypatch.setattr(defvar, "DEFAULT_TIMEOUT", 2.0)
        machine = Machine(8)
        am_util.load_all(machine)
        arr = make_array(machine, n=16, owners=4)
        machine.fail(2)  # the owner of section 2, elements 8..11
        started = time.monotonic()
        with pytest.raises(ProcessorFailedError):
            if queued:
                am_user.write_element(machine, arr.array_id, (9,), 1.0)
            else:
                am_user.write_region(
                    machine, arr.array_id, [(9, 10)], np.array([1.0])
                )
        assert time.monotonic() - started < 1.0
        assert get_perf_layer(machine).coalescer.pending_ops() == 0


class _Hold:
    """An interceptor that holds every message of one kind until
    released."""

    def __init__(self, kind):
        self.kind = kind
        self.held = []

    def __call__(self, message, forward):
        if message.kind != self.kind:
            return forward(message)
        self.held.append((message, forward))

    def release(self):
        for message, forward in self.held:
            forward(message)


def _suspended_as(machine, kind, action):
    """Run ``action`` on a thread while every ``kind`` message is held;
    return the name it was suspended on (None if it never was), once the
    held messages have been let through and the thread has finished."""
    hold = machine.transport_stack.push(_Hold(kind))
    worker = threading.Thread(target=action)
    worker.start()
    name = None
    try:
        deadline = time.monotonic() + 5.0
        while name is None and time.monotonic() < deadline:
            name = defvar.blocked_reads().get(worker.ident)
            time.sleep(0.001)
    finally:
        machine.transport_stack.remove(hold)
        hold.release()
        worker.join(timeout=10.0)
    assert not worker.is_alive()
    return name


class TestWhatTheRequestPathKeeps:
    """An element request's wrappers bind what was fixed when they were
    loaded; what they report stays what it was."""

    @pytest.fixture
    def m4(self):
        machine = Machine(4)
        am_util.load_all(machine)
        return machine

    def test_write_and_flush_spans(self, m4):
        arr = make_array(m4, n=16, owners=4, replication=1)
        with m4.observe() as observer:
            arr[5] = 1.0  # section 1, owned by processor 1
            am_user.flush_writes(m4)
            spans = observer.recorder.spans()
        attrs = {
            s["name"]: s["attrs"]
            for s in spans
            if s["name"] in ("am:write_element", "perf:flush", "am:array_batch")
        }
        assert attrs == {
            "am:write_element": {"vp": 0},
            "perf:flush": {
                "array": str(arr.array_id.as_tuple()),
                "section": 1,
                "ops": 1,
                "reason": "forced",
            },
            "am:array_batch": {"vp": 1, "ops": 1, "fused_replicas": True},
        }

    def test_am_debug_logs_and_counts_each_request_once(self):
        machine = Machine(4)
        am_util.load_all(machine, "am_debug")
        manager = get_array_manager(machine)
        arr = make_array(machine, n=16, owners=4)
        aid = arr.array_id
        counts = dict(manager.request_counts)
        logged = len(manager.trace_log)
        arr[9] = 1.0  # queued for processor 2
        assert arr[9] == 1.0  # the read carries the batch to processor 2
        # The batch is logged at the holder, inside the request carrying it.
        assert manager.trace_log[logged:] == [
            ("write_element", 0, aid),
            ("read_element", 0, aid),
            ("read_element_local", 2, aid),
            ("array_batch", 2, aid),
        ]
        moved = {
            name: count - counts.get(name, 0)
            for name, count in manager.request_counts.items()
            if count != counts.get(name, 0)
        }
        assert moved == {
            "write_element": 1,
            "read_element": 1,
            "array_batch": 1,
            "read_element_local": 1,
        }

    def test_held_request_is_listed_under_its_full_name(self, m4):
        arr = make_array(m4, n=16, owners=4)
        arr[9] = 2.0
        arr.flush()
        read = []
        name = _suspended_as(
            m4, "server_request", lambda: read.append(arr[9])
        )
        assert name == "server-read_element_local-done"
        assert read == [2.0]

    def test_held_fan_out_is_listed_under_its_full_name(self, m4):
        arr = make_array(m4, n=16, owners=4)
        arr[9] = 2.0
        arr.flush()
        read = []
        name = _suspended_as(
            m4, "server_request",
            lambda: read.append(arr.read_region([(0, 16)])),
        )
        assert name == "server-read_region_local-done"
        assert read[0][9] == 2.0

    def test_held_batch_is_listed_under_its_full_name(self, m4):
        arr = make_array(m4, n=16, owners=4)
        arr[9] = 2.0  # the first batch of section 2's queue
        name = _suspended_as(m4, "array_batch", arr.flush)
        assert name == "array_batch[1]@2"
        assert arr[9] == 2.0
