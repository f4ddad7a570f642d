"""``dead_send_policy="queue"``: buffering sends to suspected VPs.

A suspect's death is unconfirmed, so instead of raising (the suspicion
may be a network blip) or dropping (the suspect may be alive and the
data lost), the machine buffers the send and replays it when the
verdict resolves: flushed on alive/rejoin, drained to the dead counter
on a hardened dead verdict.  The detector's rounds run on a
:class:`~repro.vp.clock.ManualClock` the tests step.
"""

from __future__ import annotations

import pytest

from repro.faults import (
    FaultPlan,
    FaultyTransport,
    PartitionCut,
    PartitionPlan,
)
from repro.health import FailureDetector, HealthState
from repro.vp.clock import ManualClock
from repro.vp.machine import Machine
from tests.conftest import advance_until

INTERVAL = 1 / 64


def isolation(vp, others):
    plan = PartitionPlan([PartitionCut("iso", (vp,), tuple(others))])
    plan.heal("iso")
    return plan


def test_queue_is_a_valid_policy():
    machine = Machine(2, dead_send_policy="queue")
    assert machine.dead_send_policy == "queue"
    with pytest.raises(ValueError):
        Machine(2, dead_send_policy="buffer")


def test_send_to_suspect_is_buffered_and_flushed_on_heal():
    clock = ManualClock()
    machine = Machine(3, dead_send_policy="queue", clock=clock)
    plan = isolation(2, (0, 1))
    with FaultyTransport(machine, FaultPlan(seed=0), partitions=plan):
        detector = FailureDetector(
            machine, interval=INTERVAL, suspect_after=2.0, dead_after=1000.0
        ).install()
        try:
            plan.cut("iso")
            assert advance_until(
                clock, lambda: detector.is_suspect(2), INTERVAL
            )
            machine.send(0, 2, "parked payload", tag="queued")
            assert machine.diagnostics()["suspect_queued"] == {2: 1}
            # The partition heals, a heartbeat gets through, the VP flaps
            # back to alive — and the buffered send is replayed.
            plan.heal("iso")
            assert advance_until(
                clock,
                lambda: detector.state_of(2) is HealthState.ALIVE,
                INTERVAL,
            )
            assert machine.diagnostics()["suspect_queued"] == {}
            message = machine.processor(2).mailbox.recv(
                tag="queued", timeout=5.0
            )
            assert message.payload == "parked payload"
            assert message.source == 0
        finally:
            detector.close()


def test_queue_drains_to_dead_counter_on_hardened_verdict():
    clock = ManualClock()
    machine = Machine(3, dead_send_policy="queue", clock=clock)
    plan = isolation(2, (0, 1))
    with FaultyTransport(machine, FaultPlan(seed=0), partitions=plan):
        detector = FailureDetector(
            machine, interval=INTERVAL, suspect_after=2.0, dead_after=6.0
        ).install()
        try:
            plan.cut("iso")
            assert advance_until(
                clock, lambda: detector.is_suspect(2), INTERVAL
            )
            assert detector.state_of(2) is HealthState.SUSPECT
            machine.send(0, 2, "doomed", tag="queued")
            dropped_before = machine.dropped_to_dead
            assert advance_until(
                clock,
                lambda: detector.state_of(2) is HealthState.DEAD,
                INTERVAL,
            )
            assert machine.diagnostics()["suspect_queued"] == {}
            # What was buffered at verdict time drained to the dropped
            # counter.
            assert machine.dropped_to_dead == dropped_before + 1
        finally:
            detector.close()


def test_confirmed_alive_destination_sends_normally():
    """The queue guard only bites for suspects: a healthy destination
    gets ordinary synchronous delivery."""
    machine = Machine(3, dead_send_policy="queue")
    detector = FailureDetector(
        machine, interval=INTERVAL, suspect_after=4.0, dead_after=12.0
    ).install()
    try:
        machine.send(0, 1, "direct", tag="t")
        assert machine.diagnostics()["suspect_queued"] == {}
        message = machine.processor(1).mailbox.recv(tag="t", timeout=5.0)
        assert message.payload == "direct"
    finally:
        detector.close()


def test_queue_without_detector_degrades_to_normal_delivery():
    """No health authority installed: nothing is ever a suspect, so the
    queue policy only changes behaviour for oracle-dead destinations
    (where it discards, like "drop")."""
    machine = Machine(3, dead_send_policy="queue")
    machine.send(0, 1, "plain", tag="t")
    assert machine.processor(1).mailbox.recv(tag="t", timeout=5.0).payload == "plain"
    machine.fail(2)
    machine.send(0, 2, "gone", tag="t")  # no raise
    assert machine.dropped_to_dead >= 1
    assert machine.diagnostics()["suspect_queued"] == {}
