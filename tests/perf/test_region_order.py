"""A region request orders only the sections it touches.

§5.1.2 makes a region write one request, sent only to the owners of the
cells it names (§5.1.1).  The element writes queued for those sections
ride its shares; the queue of a section it does not touch stays queued:
no cell of that section is in the region, and every way of observing one
of its cells lands the queue first, so the program still reads what a
sequential run would (§3.3).  These tests pin the wire of such a region
write, observe the untouched section's queued write through every
channel, and kill that section's owner while the write is still queued.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arrays import am_util
from repro.arrays.durability import REPLICA_UPDATE_KIND
from repro.calls import Index, Local, Reduce, distributed_call
from repro.core.darray import DistributedArray
from repro.faults import install_recovery
from repro.perf import get_perf_layer
from repro.vp.fabric import TrafficMeter
from repro.vp.machine import Machine

DISTRIB_2X2 = (("block", 2), ("block", 2))

# Section 1 only (rows 0..3, columns 4..7 of the 8 x 8 array).
REGION = [(1, 3), (5, 8)]
# Section 2's first cell (rows 4..7, columns 0..3), held by processor 2.
CELL = (4, 0)


def make_machine():
    machine = Machine(6, default_recv_timeout=10)
    am_util.load_all(machine)
    return machine


def make_array(machine, replication=1):
    """8 x 8 on processors 0..3: section s is held by processor s."""
    return DistributedArray.create(
        machine, "double", (8, 8), [0, 1, 2, 3], DISTRIB_2X2,
        replication=replication,
    )


def queue_then_write_region(arr):
    """Queue 1.0 at CELL on processor 0, then write 5.0 over REGION, which
    does not touch CELL's section; returns the sequential result."""
    arr[CELL] = 1.0
    arr.write_region(REGION, np.full((2, 3), 5.0))
    expected = np.zeros((8, 8))
    expected[CELL] = 1.0
    expected[1:3, 5:8] = 5.0
    return expected


def test_a_region_write_leaves_an_untouched_sections_queue():
    machine = make_machine()
    arr = make_array(machine)
    coalescer = get_perf_layer(machine).coalescer
    meter = TrafficMeter()
    machine.transport_stack.push(meter)
    try:
        queue_then_write_region(arr)
        # The one share to processor 1 and its replica update: no batch
        # for section 2, and no replica update of it.
        assert meter.snapshot()["by_kind"] == {
            "server_request": (1, 8),
            REPLICA_UPDATE_KIND: (1, 6 * 8),
        }
    finally:
        machine.transport_stack.remove(meter)
    assert coalescer.pending_ops(arr.array_id) == 1


def call_reads_cell(arr):
    def program(ctx, section, index, out):
        out[0] = float(section.interior()[0, 0]) if index == 2 else 0.0

    result = distributed_call(
        arr.machine, [0, 1, 2, 3], program,
        [Local(arr.array_id), Index(), Reduce("double", 1, "sum")],
    )
    return float(result.reductions[0])


OBSERVERS = {
    "element_read": lambda arr: arr[CELL],
    "read_region": lambda arr: arr.read_region([(4, 5), (0, 1)])[0, 0],
    "to_numpy": lambda arr: arr.to_numpy()[CELL],
    "local_in_a_call": call_reads_cell,
    "checkpoint": lambda arr: arr.checkpoint().sections[2][0, 0],
}


@pytest.mark.parametrize("observe", OBSERVERS.values(), ids=OBSERVERS.keys())
def test_every_observer_sees_the_queued_write(observe):
    machine = make_machine()
    arr = make_array(machine)
    coalescer = get_perf_layer(machine).coalescer
    expected = queue_then_write_region(arr)
    assert coalescer.pending_ops(arr.array_id) == 1
    assert observe(arr) == 1.0
    assert coalescer.pending_ops(arr.array_id) == 0
    assert np.array_equal(arr.to_numpy(), expected)
    assert coalescer.lost_batches == 0


def test_the_queued_write_outlives_its_owner():
    """docs/fault_model.md §6: at replication 1 the owner of the untouched
    section dies while its write is still queued; recovery rebuilds the
    section on a spare from its mirror, the queue lands there, and the
    array equals its fault-free twin."""
    twin = make_array(make_machine())
    expected = queue_then_write_region(twin)

    machine = make_machine()
    install_recovery(machine)
    arr = make_array(machine)
    queue_then_write_region(arr)
    coalescer = get_perf_layer(machine).coalescer
    assert coalescer.pending_ops(arr.array_id) == 1
    machine.fail(2)
    assert arr.processors[2] != 2
    assert np.array_equal(arr.to_numpy(), twin.to_numpy())
    assert np.array_equal(arr.to_numpy(), expected)
    assert (coalescer.pending_ops(), coalescer.lost_batches) == (0, 0)
