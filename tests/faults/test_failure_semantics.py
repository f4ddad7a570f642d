"""VP death semantics: poisoned mailboxes, sends to the dead, diagnostics."""

from __future__ import annotations

import time

import pytest

from repro.pcn.process import spawn
from repro.status import ProcessorFailedError
from repro.vp.machine import Machine
from repro.vp.message import MessageType


class TestFailAndPoison:
    def test_blocked_receiver_raises_immediately_not_after_deadline(self):
        machine = Machine(2, default_recv_timeout=30.0)
        box = machine.processor(1).mailbox
        caught = []

        def receiver():
            started = time.monotonic()
            try:
                box.recv(mtype=MessageType.PCN, tag="never")
            except ProcessorFailedError as exc:
                caught.append((exc, time.monotonic() - started))

        proc = spawn(receiver)
        time.sleep(0.1)  # let the receiver block
        machine.fail(1)
        proc.join(timeout=5.0)
        assert len(caught) == 1
        exc, elapsed = caught[0]
        assert exc.processor == 1
        assert elapsed < 2.0  # well under the 30s recv deadline

    def test_recv_on_dead_processor_raises_even_with_buffered_message(self):
        machine = Machine(2)
        machine.send(0, 1, "x", tag="t")
        machine.fail(1)
        with pytest.raises(ProcessorFailedError):
            machine.processor(1).mailbox.recv(tag="t", timeout=1.0)

    def test_send_to_dead_raises_by_default(self):
        machine = Machine(2)
        machine.fail(1)
        with pytest.raises(ProcessorFailedError) as info:
            machine.send(0, 1, "x")
        assert info.value.processor == 1

    def test_message_held_past_its_destinations_death_is_dropped(self):
        """A message routed while its destination lived, held by an
        interceptor while it dies, is discarded at delivery and counted
        once in ``dropped_to_dead``."""
        machine = Machine(2)
        held = []
        machine.transport_stack.push(
            lambda message, forward: held.append((message, forward))
        )
        machine.send(0, 1, "x", tag="t")
        machine.fail(1)
        message, forward = held.pop()
        forward(message)
        assert machine.processor(1).mailbox.pending() == 0
        assert machine.diagnostics()["dropped_to_dead"] == 1

    def test_send_from_dead_raises(self):
        machine = Machine(2)
        machine.fail(0)
        with pytest.raises(ProcessorFailedError):
            machine.send(0, 1, "x")

    def test_spawn_on_dead_raises(self):
        machine = Machine(2)
        machine.fail(1)
        with pytest.raises(ProcessorFailedError):
            machine.processor(1).spawn(lambda: None)

    def test_fail_is_idempotent_and_revive_restores(self):
        machine = Machine(2)
        machine.fail(1)
        machine.fail(1)
        assert machine.failed_processors() == [1]
        machine.revive(1)
        assert machine.failed_processors() == []
        machine.send(0, 1, "back", tag="t")
        msg = machine.processor(1).mailbox.recv(tag="t", timeout=1.0)
        assert msg.payload == "back"

    def test_check_alive(self):
        machine = Machine(4)
        machine.check_alive([0, 1, 2, 3])
        machine.fail(2)
        with pytest.raises(ProcessorFailedError):
            machine.check_alive([0, 1, 2, 3])
        machine.check_alive([0, 1, 3])


class TestDiagnostics:
    def test_snapshot_reports_dead_pending_and_blocked(self):
        machine = Machine(3)
        machine.fail(2)
        machine.send(0, 1, "queued", tag="t")

        blocked_seen = []

        def receiver():
            try:
                machine.processor(0).mailbox.recv(tag="nothing", timeout=1.5)
            except TimeoutError:
                pass

        proc = spawn(receiver)
        time.sleep(0.1)
        diag = machine.diagnostics()
        proc.join(timeout=5.0)

        assert diag["num_nodes"] == 3
        assert diag["failed"] == [2]
        assert diag["pending_messages"] == {1: 1}
        blocked_seen = [
            b for b in diag["blocked_receivers"] if b["processor"] == 0
        ]
        assert len(blocked_seen) == 1
        assert "selective recv" in blocked_seen[0]["waiting_for"]

    def test_snapshot_clean_machine(self):
        machine = Machine(2)
        diag = machine.diagnostics()
        assert diag["failed"] == []
        assert diag["pending_messages"] == {}
        assert diag["blocked_receivers"] == []
        assert diag["dropped_to_dead"] == 0

    def test_runtime_diagnostics_facade(self):
        from repro.core.runtime import IntegratedRuntime

        rt = IntegratedRuntime(2)
        assert rt.diagnostics()["num_nodes"] == 2


class TestCallLayerWithDeadVPs:
    def test_distributed_call_on_dead_group_raises(self):
        from repro.arrays import am_util
        from repro.calls import distributed_call

        machine = Machine(4)
        am_util.load_all(machine)
        machine.fail(2)
        with pytest.raises(ProcessorFailedError):
            distributed_call(
                machine, am_util.node_array(0, 1, 4), lambda ctx: None, []
            )

    def test_copy_blocked_on_dead_peer_fails_fast(self):
        """A copy receiving from a VP that dies mid-call surfaces the
        failure as an exception (supervision hook), not a 30s hang."""
        from repro.arrays import am_util
        from repro.calls import Index, distributed_call

        machine = Machine(2, default_recv_timeout=5.0)
        am_util.load_all(machine)

        def program(ctx, index):
            if index == 0:
                # Dies before sending what rank 1 waits for.
                machine.fail(ctx.procs[0])
                return
            ctx.comm.recv(source_rank=0, tag="never")

        started = time.monotonic()
        with pytest.raises(ProcessorFailedError):
            distributed_call(
                machine, am_util.node_array(0, 1, 2), program, [Index()]
            )
        assert time.monotonic() - started < 4.0
