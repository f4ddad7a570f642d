"""Watchdog: wait-graph construction and DeadlockError on circular waits."""

from __future__ import annotations

import time

import pytest

from repro.faults import Watchdog
from repro.pcn.defvar import DefVar
from repro.pcn.process import spawn
from repro.status import DeadlockError
from repro.vp.clock import ManualClock
from repro.vp.machine import Machine
from repro.vp.message import MessageType
from tests.conftest import advance_until


class TestCircularWait:
    def test_two_process_defvar_cycle_raises_with_graph(self):
        x = DefVar("x")
        y = DefVar("y")

        def proc_a():
            # Waits for y, would then define x — classic circular wait.
            value = y.read(timeout=20.0)
            x.define(value)

        def proc_b():
            value = x.read(timeout=20.0)
            y.define(value)

        a = spawn(proc_a, name="A")
        b = spawn(proc_b, name="B")
        wd = Watchdog(poll=0.01, grace=0.1)
        started = time.monotonic()
        with pytest.raises(DeadlockError) as info:
            wd.join([a, b], timeout=10.0)
        # Detected by the watchdog, far sooner than any read deadline.
        assert time.monotonic() - started < 5.0
        graph = info.value.wait_graph
        assert len(graph) == 2
        resources = {e.waiter: e.resource for e in graph}
        assert resources["A"] == "defvar:y"
        assert resources["B"] == "defvar:x"

    def test_mailbox_circular_wait_detected(self):
        machine = Machine(2, default_recv_timeout=20.0)

        def node(me, peer):
            # Each node receives before sending: nobody ever sends.
            machine.processor(me).mailbox.recv(
                mtype=MessageType.PCN, tag="ping", source=peer
            )
            machine.send(me, peer, "pong", tag="ping")

        a = spawn(node, 0, 1, name="node0")
        b = spawn(node, 1, 0, name="node1")
        wd = Watchdog(machine, poll=0.01, grace=0.1)
        with pytest.raises(DeadlockError) as info:
            wd.join([a, b], timeout=10.0)
        kinds = sorted(e.resource.split(":")[0] for e in info.value.wait_graph)
        assert kinds == ["mailbox", "mailbox"]

    def test_deadlock_message_names_the_edges(self):
        v = DefVar("lonely")
        p = spawn(lambda: v.read(timeout=20.0), name="waiter")
        wd = Watchdog(poll=0.01, grace=0.1)
        with pytest.raises(DeadlockError, match="waiter -> defvar:lonely"):
            wd.join([p], timeout=10.0)
        v.define(0)  # let the thread exit


class TestNoFalsePositives:
    def test_progressing_processes_complete_normally(self):
        x = DefVar("x")

        def producer():
            time.sleep(0.15)
            x.define(41)
            return "produced"

        def consumer():
            return x.read(timeout=10.0) + 1

        a = spawn(producer, name="producer")
        b = spawn(consumer, name="consumer")
        wd = Watchdog(poll=0.01, grace=0.3)
        results = wd.join([a, b], timeout=10.0)
        assert sorted(str(r) for r in results) == ["42", "produced"]

    def test_busy_process_suppresses_detection(self):
        """One runnable (non-suspended) process means no deadlock."""
        x = DefVar("never")

        def busy():
            deadline = time.monotonic() + 0.5
            while time.monotonic() < deadline:
                time.sleep(0.01)
            x.define(1)

        a = spawn(lambda: x.read(timeout=10.0), name="reader")
        b = spawn(busy, name="busy")
        wd = Watchdog(poll=0.01, grace=0.15)
        results = wd.join([a, b], timeout=10.0)
        assert 1 in results

    def test_join_propagates_process_errors(self):
        def boom():
            raise RuntimeError("inner failure")

        p = spawn(boom, name="boom")
        wd = Watchdog(poll=0.01, grace=0.1)
        with pytest.raises(RuntimeError, match="inner failure"):
            wd.join([p], timeout=10.0)

    def test_wait_graph_snapshot_of_running_processes(self):
        x = DefVar("snap")
        p = spawn(lambda: x.read(timeout=10.0), name="snapper")
        time.sleep(0.1)
        wd = Watchdog(poll=0.01, grace=0.1)
        graph = wd.wait_graph([p])
        assert [str(e) for e in graph] == ["snapper -> defvar:snap"]
        x.define(0)
        p.join(timeout=5.0)
        assert wd.wait_graph([p]) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            Watchdog(poll=0.0)


class TestSuspectedPeers:
    """Waiting on a *suspected* peer is silence under adjudication, not
    a circular dependency: the watchdog must report it, never convert it
    into a false DeadlockError.  The detector's rounds run on a manual
    clock the tests step; the watchdog and the receives stay on real
    time."""

    INTERVAL = 1 / 64

    def _rounds(self, machine, predicate):
        return advance_until(machine.clock, predicate, self.INTERVAL)

    def _suspected_machine(self):
        from repro.faults import FaultPlan, FaultyTransport
        from repro.faults.partition import PartitionCut, PartitionPlan
        from repro.health import FailureDetector

        machine = Machine(2, default_recv_timeout=20.0, clock=ManualClock())
        plan = PartitionPlan([PartitionCut("iso", (1,), (0,))])
        plan.heal("iso")
        transport = FaultyTransport(
            machine, FaultPlan(seed=0), partitions=plan
        ).install()
        detector = FailureDetector(
            machine,
            interval=self.INTERVAL,
            suspect_after=2.0,
            dead_after=10_000.0,
        ).install()
        return machine, plan, transport, detector

    def test_wait_on_suspect_times_out_instead_of_deadlocking(self):
        machine, plan, transport, detector = self._suspected_machine()
        try:
            plan.cut("iso")
            assert self._rounds(machine, lambda: detector.is_suspect(1))

            def node0():
                return machine.processor(0).mailbox.recv(
                    mtype=MessageType.PCN, tag="ping", source=1
                )

            p = spawn(node0, name="node0")
            wd = Watchdog(machine, poll=0.01, grace=0.1)
            # Far beyond the grace window, yet no DeadlockError: the
            # join hits its own deadline and says why.
            with pytest.raises(TimeoutError, match="waiting on suspect"):
                wd.join([p], timeout=1.0)
            # The suspect proves alive; the wait satisfies normally.
            plan.heal("iso")
            assert self._rounds(machine, lambda: not detector.is_suspect(1))
            machine.send(1, 0, "pong", tag="ping")
            assert wd.join([p], timeout=10.0)[0].payload == "pong"
        finally:
            detector.close()
            transport.uninstall()

    def test_wait_graph_marks_suspect_edges(self):
        machine, plan, transport, detector = self._suspected_machine()
        try:
            plan.cut("iso")
            assert self._rounds(machine, lambda: detector.is_suspect(1))

            def node0():
                return machine.processor(0).mailbox.recv(
                    mtype=MessageType.PCN, tag="ping", source=1
                )

            p = spawn(node0, name="node0")
            time.sleep(0.1)
            wd = Watchdog(machine, poll=0.01, grace=0.1)
            graph = wd.wait_graph([p])
            assert len(graph) == 1
            assert graph[0].suspect
            assert "[waiting on suspect]" in str(graph[0])
            # A wait on a healthy peer stays an ordinary edge.
            plan.heal("iso")
            assert self._rounds(machine, lambda: not detector.is_suspect(1))
            graph = wd.wait_graph([p])
            assert len(graph) == 1 and not graph[0].suspect
            machine.send(1, 0, "pong", tag="ping")
            p.join(timeout=5.0)
        finally:
            detector.close()
            transport.uninstall()
