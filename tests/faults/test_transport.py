"""FaultyTransport: message faults injected at the machine transport."""

from __future__ import annotations

import pytest

from repro.faults import FaultPlan, FaultyTransport, KillSpec
from repro.status import ProcessorFailedError
from repro.vp.machine import Machine
from repro.vp.message import MessageType
from tests.conftest import wait_until


@pytest.fixture
def m2():
    return Machine(2, default_recv_timeout=2.0)


def flood(machine, count, src=0, dst=1, tag="t"):
    for i in range(count):
        machine.send(src, dst, i, tag=tag)


class TestDropDuplicate:
    def test_drop_all(self, m2):
        with FaultyTransport(m2, FaultPlan(seed=1, drop=1.0)):
            flood(m2, 10)
        assert m2.processor(1).mailbox.pending() == 0

    def test_drop_partial_is_deterministic(self, m2):
        with FaultyTransport(m2, FaultPlan(seed=4, drop=0.3)) as ft:
            flood(m2, 100)
        first = ft.stats.dropped
        assert 0 < first < 100

        other = Machine(2)
        with FaultyTransport(other, FaultPlan(seed=4, drop=0.3)) as ft2:
            flood(other, 100)
        assert ft2.stats.dropped == first
        assert other.processor(1).mailbox.pending() == 100 - first

    def test_duplicate_delivers_twice(self, m2):
        with FaultyTransport(m2, FaultPlan(seed=2, duplicate=1.0)) as ft:
            flood(m2, 5)
        assert ft.stats.duplicated == 5
        assert m2.processor(1).mailbox.pending() == 10

    def test_uninstall_restores_perfect_transport(self, m2):
        ft = FaultyTransport(m2, FaultPlan(seed=1, drop=1.0)).install()
        flood(m2, 3)
        ft.uninstall()
        flood(m2, 3)
        assert m2.processor(1).mailbox.pending() == 3


class TestDelayReorder:
    def test_delayed_message_eventually_arrives(self, m2):
        plan = FaultPlan(seed=3, delay=1.0, delay_seconds=0.01)
        with FaultyTransport(m2, plan) as ft:
            flood(m2, 4)
            wait_until(
                lambda: m2.processor(1).mailbox.pending() == 4, timeout=2.0
            )
        assert m2.processor(1).mailbox.pending() == 4
        assert ft.stats.delayed == 4

    def test_reorder_swaps_adjacent_messages(self):
        machine = Machine(2)
        # Reorder exactly the first message on the channel: it should be
        # delivered after the second one.
        plan = FaultPlan(seed=0, reorder=1.0)
        ft = FaultyTransport(machine, plan)
        # Find a seed whose first decision reorders and second doesn't,
        # by only sending two messages and flushing.
        with ft:
            machine.send(0, 1, "a", tag="t")
            machine.send(0, 1, "b", tag="t")
        box = machine.processor(1).mailbox
        payloads = [m.payload for m in box.drain()]
        assert sorted(payloads) == ["a", "b"]
        assert ft.stats.reordered >= 1

    def test_reorder_flush_timer_recovers_lone_message(self, m2):
        plan = FaultPlan(seed=5, reorder=1.0)
        with FaultyTransport(m2, plan):
            m2.send(0, 1, "solo", tag="t")
            msg = m2.processor(1).mailbox.recv(
                mtype=MessageType.PCN, tag="t", timeout=1.0
            )
        assert msg.payload == "solo"


class TestKills:
    def test_kill_after_nth_send(self, m2):
        plan = FaultPlan(kills=(KillSpec(0, after=3, on="send"),))
        with FaultyTransport(m2, plan) as ft:
            flood(m2, 3)
            assert m2.is_failed(0)
            assert ft.stats.killed == [0]
            with pytest.raises(ProcessorFailedError):
                m2.send(0, 1, "after death", tag="t")
        assert m2.processor(1).mailbox.pending() == 3

    def test_kill_after_nth_recv(self, m2):
        plan = FaultPlan(kills=(KillSpec(1, after=2, on="recv"),))
        with FaultyTransport(m2, plan):
            flood(m2, 2)
            assert m2.is_failed(1)

    def test_kill_fires_once(self, m2):
        plan = FaultPlan(kills=(KillSpec(0, after=1, on="send"),))
        with FaultyTransport(m2, plan) as ft:
            flood(m2, 1)
            m2.revive(0)
            flood(m2, 5)
        assert ft.stats.killed == [0]
        assert not m2.is_failed(0)


class TestComposability:
    def test_workload_unchanged_with_noop_plan(self):
        """Injection off (all-zero plan) must not perturb a real workload."""
        from repro.arrays import am_util
        from repro.calls import Index, Reduce, distributed_call
        from repro.status import Status

        machine = Machine(4)
        am_util.load_all(machine)
        procs = am_util.node_array(0, 1, 4)

        def program(ctx, index, out):
            out[0] = float(index)

        with FaultyTransport(machine, FaultPlan(seed=1)) as ft:
            result = distributed_call(
                machine, procs, program, [Index(), Reduce("double", 1, "sum")]
            )
            flood(machine, 100)
        assert result.status is Status.OK
        assert result.reductions[0] == 6.0
        # Constant bookkeeping only: every message routed was delivered,
        # none perturbed.
        assert ft.stats.as_dict() == {
            "routed": 100, "delivered": 100, "dropped": 0, "duplicated": 0,
            "delayed": 0, "reordered": 0, "partitioned": 0, "killed": [],
        }
        assert machine.processor(1).mailbox.pending() == 100
