"""The array manager's fan-outs under message faults.

``create_array`` / ``free_array`` / ``read_region`` / ``write_region`` are
each one ``ServerRegistry.request_each``: one ``server_request`` message per
remote holder, one shared completion, one shared status.  These tests drive
that through the real manager with duplicated, held and dropped hops; the
contract of ``request_each`` itself is in ``tests/vp/test_server.py``.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.arrays import am_user, am_util
from repro.arrays.local_section import TRACKER
from repro.arrays.manager import _records, get_array_manager
from repro.core.darray import DistributedArray
from repro.faults import FaultPlan, FaultyTransport
from repro.status import Status
from repro.vp.fabric import TraceInterceptor
from repro.vp.machine import Machine

FAN_OUT_REQUESTS = (
    "create_local", "write_region_local", "read_region_local", "free_local",
)


def machine_of(nodes=8, **options):
    machine = Machine(nodes, **options)
    am_util.load_all(machine)
    return machine


def test_duplicated_hops_are_each_serviced_once():
    """Every ``server_request`` delivered twice: eight holders still make
    eight requests of each kind, and nothing is applied or freed twice."""
    m = machine_of(default_recv_timeout=5.0)
    live_before = TRACKER.live
    values = np.arange(32, dtype=np.float64)
    with FaultyTransport(m, FaultPlan(seed=7, duplicate=1.0)) as transport:
        arr = DistributedArray.create(
            m, "double", (32,), am_util.node_array(0, 1, 8), ["block"]
        )
        arr.from_numpy(values)
        assert np.array_equal(arr.to_numpy(), values)
        arr.free()
    assert transport.stats.duplicated >= 4 * 7
    counts = get_array_manager(m).request_counts
    assert {name: counts[name] for name in FAN_OUT_REQUESTS} == dict.fromkeys(
        FAN_OUT_REQUESTS, 8
    )
    assert TRACKER.live == live_before


def test_all_hops_of_a_create_are_sent_before_any_is_serviced():
    """A holding interceptor queues the ``create_local`` hops and lets them
    go on demand: the seven are all in flight while the requester waits, so
    under delay a fan-out costs its slowest hop, not the sum."""
    m = machine_of(default_recv_timeout=5.0)
    held = []
    all_sent = threading.Event()

    def hold(message, forward):
        if message.kind != "server_request":
            return forward(message)
        held.append(message)
        if len(held) == 7:
            all_sent.set()

    m.transport_stack.push(hold)
    result = []
    creator = threading.Thread(
        target=lambda: result.append(
            am_user.create_array(
                m, "double", (32,), am_util.node_array(0, 1, 8), ["block"]
            )
        )
    )
    creator.start()
    assert all_sent.wait(timeout=5)
    # Only the creating processor's own record exists: it is served in
    # place, the seven routed hops are sent and none has been serviced.
    assert get_array_manager(m).request_counts["create_local"] == 1
    assert [len(_records(m.processor(p))) for p in range(8)] == [1] + [0] * 7
    assert sorted(message.dest for message in held) == [1, 2, 3, 4, 5, 6, 7]
    for message in held:
        m.transport_stack.forward_from(hold, message)
    creator.join(timeout=5)
    assert not creator.is_alive()
    (array_id, status), = result
    assert status is Status.OK
    assert get_array_manager(m).request_counts["create_local"] == 8
    m.transport_stack.remove(hold)
    assert am_user.free_array(m, array_id) is Status.OK


def test_a_dropped_hop_is_a_timeout_not_a_hang():
    m = machine_of(default_recv_timeout=0.1)
    plan = FaultPlan(seed=1, drop=1.0, kinds=("server_request",))
    with FaultyTransport(m, plan):
        with pytest.raises(TimeoutError):
            am_user.create_array(
                m, "double", (32,), am_util.node_array(0, 1, 8), ["block"]
            )


def test_every_hop_of_a_fan_out_carries_its_trace():
    """``create_array`` from a top-level thread used to give each of its
    seven hops a root trace of its own."""
    m = machine_of()
    tracer = TraceInterceptor(m).install()
    array_id, status = am_user.create_array(
        m, "double", (32,), am_util.node_array(0, 1, 8), ["block"]
    )
    assert status is Status.OK
    created = tracer.traces()
    assert len(created) == 1
    assert [span["dest"] for span in tracer.spans_for(created[0])] == [
        1, 2, 3, 4, 5, 6, 7,
    ]
    assert am_user.free_array(m, array_id) is Status.OK
    (freed,) = [trace for trace in tracer.traces() if trace not in created]
    assert len(tracer.spans_for(freed)) == 7
