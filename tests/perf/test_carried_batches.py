"""A request for one section carries the section's queued writes.

An element read, a region-read share and a region-write share made on the
processor that queued writes for their section take that queue with them
(``WriteCoalescer.carry``): the holder applies it in the request's own
commit.  These tests follow the carried batch wherever it does not get
``"ok"`` inside its request — refused by a holder that lost the section,
fenced at a stale holder, delivered twice, delivered late after its
request gave up — to the perf layer's route, which owns re-sends,
``lost_batches`` and exactly-once; and they check that a queue written on
another processor is never carried, and that two carrying region writes
over the same sections cannot deadlock on the sections' flush locks.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.arrays import am_user, am_util
from repro.arrays.durability import REPLICA_UPDATE_KIND
from repro.arrays.manager import get_array_manager
from repro.core.darray import DistributedArray
from repro.faults import FaultPlan, FaultyTransport
from repro.faults.plan import FaultDecision
from repro.perf import ARRAY_BATCH_KIND, get_perf_layer
from repro.status import Status
from repro.vp.clock import ManualClock
from repro.vp.fabric import TrafficMeter
from repro.vp.machine import Machine

DISTRIB_2X2 = (("block", 2), ("block", 2))


def make_machine(clock=None, recv_timeout=10):
    machine = Machine(6, clock=clock, default_recv_timeout=recv_timeout)
    am_util.load_all(machine)
    return machine


def make_array(machine, replication=0):
    """8 x 8 on processors 0..3: section s is held by processor s."""
    return DistributedArray.create(
        machine, "double", (8, 8), [0, 1, 2, 3], DISTRIB_2X2,
        replication=replication,
    )


def wait_for(predicate, seconds=10.0):
    deadline = time.monotonic() + seconds
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


def meter_on(machine):
    meter = TrafficMeter()
    machine.transport_stack.push(meter)
    return meter


def kind_count(meter, kind):
    return meter.snapshot()["by_kind"].get(kind, (0, 0))[0]


class DelayFirst(FaultPlan):
    """Hold back the first request of type ``what`` until the clock
    passes the delay; pass everything else."""

    def __init__(self, what):
        super().__init__()
        object.__setattr__(self, "what", what)
        object.__setattr__(self, "held", [])

    def decide(self, message, channel_ordinal):
        request = getattr(message.payload, "request_type", None)
        if self.held or request != self.what:
            return FaultDecision()
        self.held.append(message)
        return FaultDecision(delay=True)


class DuplicateRequests(FaultPlan):
    """Deliver every request of type ``what`` twice."""

    def __init__(self, what):
        super().__init__()
        object.__setattr__(self, "what", what)

    def decide(self, message, channel_ordinal):
        request = getattr(message.payload, "request_type", None)
        return FaultDecision(duplicate=request == self.what)


class Recorder:
    """An interceptor keeping (kind, source, dest) of every message."""

    def __init__(self):
        self.seen = []

    def __call__(self, message, forward):
        self.seen.append((message.kind, message.source, message.dest))
        forward(message)


def test_a_read_carries_its_sections_queue():
    machine = make_machine()
    arr = make_array(machine, replication=1)
    coalescer = get_perf_layer(machine).coalescer
    meter = meter_on(machine)
    arr[4, 0] = 1.0  # section 2, queued on processor 0
    assert arr[4, 0] == 1.0
    # One request carrying the batch, one replica update: no batch alone.
    assert meter.snapshot()["by_kind"] == {
        "server_request": (1, 8 + 16 + 8),
        REPLICA_UPDATE_KIND: (1, 8),
    }
    diagnostics = coalescer.diagnostics()
    assert diagnostics["carried_batches"] == 1
    assert (diagnostics["flushes"], diagnostics["flushed_ops"]) == (1, 1)
    assert (diagnostics["routed_batches"], diagnostics["retries"]) == (0, 0)


def test_a_refused_carried_batch_lands_at_the_new_owner():
    """The carrying read reaches processor 2 after section 2 moved to
    processor 4: the holder check refuses it, the read answers NOT_FOUND,
    and the batch goes by the route to processor 4 — lost nowhere."""
    clock = ManualClock()
    machine = make_machine(clock)
    arr = make_array(machine)
    coalescer = get_perf_layer(machine).coalescer
    answers = []
    with FaultyTransport(machine, DelayFirst("read_element_local")) as ft:
        arr[4, 0] = 1.0  # section 2, queued on processor 0
        reader = threading.Thread(
            target=lambda: answers.append(
                am_user.read_element(machine, arr.array_id, (4, 0))
            )
        )
        reader.start()
        wait_for(lambda: ft.stats.delayed == 1)
        arr.migrate({2: 4})
        clock.advance(1.0)
        reader.join(timeout=10)
        assert not reader.is_alive()
    assert answers == [(None, Status.NOT_FOUND)]
    assert arr.processors == (0, 1, 4, 3)
    assert arr[4, 0] == 1.0
    assert (coalescer.carried_batches, coalescer.retries) == (1, 1)
    assert (coalescer.flushes, coalescer.lost_batches) == (1, 0)


def test_a_stale_holder_answers_a_carried_read_stale_epoch():
    """A holder whose record is behind the array's epoch (a membership
    rewrite it never got) fences the carried batch, and the read answers
    STALE_EPOCH instead of a value missing the write it carried.  The
    route then finds the same stale holder and loses the batch, as it
    loses any batch to a holder that stays stale."""
    machine = make_machine()
    arr = make_array(machine)
    coalescer = get_perf_layer(machine).coalescer
    state = get_array_manager(machine).durability_state(arr.array_id)
    arr[4, 0] = 1.0  # section 2, queued on processor 0
    with state.lock:
        state.epoch = state.allocate_epoch()
    fenced = state.fenced_writes
    value, status = am_user.read_element(machine, arr.array_id, (4, 0))
    assert (value, status) == (None, Status.STALE_EPOCH)
    assert state.fenced_writes > fenced
    assert coalescer.lost_batches == 1
    block, status = am_user.get_local_block(machine, arr.array_id, 2)
    assert status is Status.OK and block[1][0, 0] == 0.0


def test_a_duplicated_carrying_request_applies_its_batch_once():
    machine = make_machine()
    arr = make_array(machine, replication=1)
    plan = DuplicateRequests("write_region_local")
    ft = FaultyTransport(machine, plan).install()
    meter = meter_on(machine)
    try:
        arr[4, 0] = 1.0  # section 2, queued on processor 0
        arr.write_region([(5, 6), (0, 4)], np.full((1, 4), 7.0))
        assert ft.stats.duplicated == 1
        # One commit at the holder: one replica update, no batch alone.
        assert kind_count(meter, REPLICA_UPDATE_KIND) == 1
        assert kind_count(meter, ARRAY_BATCH_KIND) == 0
    finally:
        ft.uninstall()
        machine.transport_stack.remove(meter)
    assert arr.read_region([(4, 6), (0, 4)]).tolist() == [
        [1.0, 0.0, 0.0, 0.0], [7.0] * 4,
    ]
    assert get_perf_layer(machine).coalescer.lost_batches == 0


def test_a_late_carrying_request_applies_nothing_twice():
    """The carrying read is held back past its deadline: the read raises,
    the route delivers the batch, and the original arriving late finds it
    applied — one replica update in all."""
    clock = ManualClock()
    machine = make_machine(clock, recv_timeout=0.5)
    arr = make_array(machine, replication=1)
    coalescer = get_perf_layer(machine).coalescer
    manager = get_array_manager(machine)
    with FaultyTransport(machine, DelayFirst("read_element_local")) as ft:
        meter = meter_on(machine)
        arr[4, 0] = 1.0  # section 2, queued on processor 0
        with pytest.raises(TimeoutError):
            am_user.read_element(machine, arr.array_id, (4, 0))
        assert ft.stats.delayed == 1
        assert kind_count(meter, ARRAY_BATCH_KIND) == 1
        assert kind_count(meter, REPLICA_UPDATE_KIND) == 1
        clock.advance(1.0)
        wait_for(
            lambda: manager.request_counts.get("read_element_local") == 1
        )
        assert kind_count(meter, REPLICA_UPDATE_KIND) == 1
        machine.transport_stack.remove(meter)
    assert (coalescer.carried_batches, coalescer.retries) == (1, 1)
    assert (coalescer.flushes, coalescer.lost_batches) == (1, 0)
    assert arr[4, 0] == 1.0


def test_a_queue_written_elsewhere_is_routed_from_its_writer():
    machine = make_machine()
    arr = make_array(machine)
    coalescer = get_perf_layer(machine).coalescer
    # Queued on processor 1 for section 2; read from processor 0.
    assert am_user.write_element(
        machine, arr.array_id, (4, 0), 1.0, processor=1
    ) is Status.OK
    recorder = Recorder()
    machine.transport_stack.push(recorder)
    try:
        assert arr[4, 0] == 1.0
    finally:
        machine.transport_stack.remove(recorder)
    assert recorder.seen == [
        (ARRAY_BATCH_KIND, 1, 2),
        ("server_request", 0, 2),
    ]
    assert (coalescer.carried_batches, coalescer.routed_batches) == (0, 1)


def test_an_unplaced_region_write_carries_nothing():
    """``write_region_targeted`` from the task level runs every share in
    place: a batch it carried would leave no trace on the wire, so the
    queue goes by the route, from the processor it was written on."""
    machine = make_machine()
    arr = make_array(machine)
    coalescer = get_perf_layer(machine).coalescer
    arr[4, 0] = 1.0  # section 2, queued on processor 0
    meter = meter_on(machine)
    try:
        assert am_user.write_region_targeted(
            machine, arr.array_id, [(5, 6), (0, 4)], np.full((1, 4), 7.0)
        ) is Status.OK
        assert meter.snapshot()["by_kind"] == {ARRAY_BATCH_KIND: (1, 24)}
    finally:
        machine.transport_stack.remove(meter)
    assert (coalescer.carried_batches, coalescer.routed_batches) == (0, 1)
    assert arr[4, 0] == 1.0


def test_overlapping_carrying_region_writes_both_finish():
    """Two writers queue element writes on every section and write
    overlapping regions, over and over: one region touches sections 0
    and 1, the other 1 and 3.  Each takes the flush locks of the sections
    its region touches, in section order, and holds them until its shares
    answer — so neither waits for ever on a lock the other holds.  The
    queues of the sections neither region touches stay queued until the
    closing flush."""
    machine = make_machine(recv_timeout=5)
    arr = make_array(machine)
    rounds = 40
    errors = []

    def writer(value, region):
        (r0, r1), (c0, c1) = region
        try:
            for _ in range(rounds):
                for i in range(8):
                    arr[i, (i + int(value)) % 8] = value
                arr.write_region(region, np.full((r1 - r0, c1 - c0), value))
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    # Daemons: a deadlock fails the join below instead of hanging the run.
    threads = [
        threading.Thread(
            target=writer, args=(1.0, [(1, 3), (2, 6)]), daemon=True
        ),
        threading.Thread(
            target=writer, args=(2.0, [(2, 6), (5, 8)]), daemon=True
        ),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    coalescer = get_perf_layer(machine).coalescer
    assert coalescer.carried_batches > 0
    arr.flush()
    assert coalescer.lost_batches == 0
    assert coalescer.pending_ops() == 0
