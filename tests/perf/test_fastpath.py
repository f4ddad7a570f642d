"""The same-node routing fast path.

When source == dest and the transport stack is empty, ``Machine.route``
skips trace stamping and interceptor dispatch.  The path must be
accounting-neutral (counters still move) and must yield to the slow path
the moment anything is watching the wire.
"""

from __future__ import annotations

import pytest

from repro.vp.fabric import TrafficMeter
from repro.vp.machine import Machine
from repro.vp.message import Message


@pytest.fixture
def machine():
    return Machine(4)


def test_same_node_message_delivered_and_counted(machine):
    machine.route(Message(source=2, dest=2, payload="loop"))
    assert machine.processor(2).mailbox.recv(timeout=5).payload == "loop"
    snap = machine.traffic_snapshot()
    assert snap["messages"] == 1 and snap["bytes"] > 0


def test_fast_path_skips_trace_stamping(machine):
    machine.route(Message(source=1, dest=1, payload="x"))
    msg = machine.processor(1).mailbox.recv(timeout=5)
    assert msg.trace_id is None  # envelope not copied, not stamped


def test_cross_node_message_still_stamped(machine):
    machine.route(Message(source=0, dest=1, payload="x"))
    assert machine.processor(1).mailbox.recv(timeout=5).trace_id is not None


def test_interceptor_disables_fast_path(machine):
    meter = TrafficMeter()
    machine.transport_stack.push(meter)
    try:
        machine.route(Message(source=3, dest=3, payload="seen"))
        msg = machine.processor(3).mailbox.recv(timeout=5)
        # Non-empty stack: the message went down the interceptor stack
        # (the meter saw it) and was trace-stamped as usual.
        assert meter.snapshot()["messages"] == 1
        assert msg.trace_id is not None
    finally:
        machine.transport_stack.remove(meter)


def test_fast_path_respects_dead_destination(machine):
    machine.fail(2)
    with pytest.raises(Exception):
        # Dead *source* still raises before the fast path is consulted.
        machine.route(Message(source=2, dest=2, payload="x"))
