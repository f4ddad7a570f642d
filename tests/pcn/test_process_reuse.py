"""Processes on reused threads: what must not change, what must not leak.

A finished process parks its OS thread and the next ``start`` takes it
(``repro.pcn.process``).  The contracts a thread-per-process ``Process``
gave for free — name, ident, liveness, join, error re-raise, a clean
thread-local slate — are pinned here, together with the one property a
shared pool would break: a blocked process never holds up another.
"""

from __future__ import annotations

import threading

import pytest

from repro.apps import innerproduct
from repro.arrays import am_user, am_util
from repro.calls import Index, Local, distributed_call
from repro.pcn.defvar import DefVar, Mutable
from repro.pcn.process import (
    Process,
    current_process_id,
    spawn,
    thread_stats,
)
from repro.status import SharedVariableConflictError
from repro.vp import fabric
from repro.vp.machine import Machine

JOIN_S = 10.0


def run_on_same_worker(first, second):
    """Run two bodies one after the other on one worker thread; returns
    their processes.  Other tests' stragglers may park workers at any
    moment, so retry until the idents match."""
    for _ in range(50):
        a = finish(spawn(first))
        b = finish(spawn(second))
        if a.ident == b.ident:
            return a, b
    pytest.fail("never got the same worker twice")


def finish(proc):
    """Wait for ``proc`` to end, whether its body returned or raised."""
    try:
        proc.join(timeout=JOIN_S)
    except BaseException:  # noqa: BLE001 - the caller inspects the process
        pass
    assert not proc.is_alive()
    return proc


class TestContracts:
    def test_thread_carries_the_process_name_while_it_runs(self):
        proc = spawn(lambda: threading.current_thread().name, name="named-body")
        assert proc.join(timeout=JOIN_S) == "named-body"

    def test_worker_threads_are_daemons(self):
        assert spawn(lambda: threading.current_thread().daemon).join(
            timeout=JOIN_S
        )

    def test_ident_is_none_before_start_and_the_body_thread_after(self):
        proc = Process(threading.get_ident)
        assert proc.ident is None
        proc.start()
        assert proc.ident is not None  # set before the body can run
        assert proc.join(timeout=JOIN_S) == proc.ident

    def test_is_alive_spans_exactly_the_body(self):
        gate = threading.Event()
        proc = Process(gate.wait, args=(JOIN_S,))
        assert not proc.is_alive()
        proc.start()
        assert proc.is_alive()
        gate.set()
        proc.join(timeout=JOIN_S)
        assert not proc.is_alive()

    def test_join_timeout_then_join_again(self):
        gate = threading.Event()
        proc = spawn(gate.wait, JOIN_S)
        with pytest.raises(TimeoutError):
            proc.join(timeout=0.02)
        with pytest.raises(TimeoutError):
            proc.join(timeout=-1)  # a negative timeout does not mean forever
        assert proc.is_alive()
        gate.set()
        assert proc.join(timeout=JOIN_S) is True
        assert proc.join(timeout=JOIN_S) is True  # joinable more than once

    def test_join_from_several_threads(self):
        gate = threading.Event()
        proc = spawn(lambda: gate.wait(JOIN_S) and "done")
        results = []
        joiners = [
            threading.Thread(
                target=lambda: results.append(proc.join(timeout=JOIN_S))
            )
            for _ in range(4)
        ]
        for t in joiners:
            t.start()
        gate.set()
        for t in joiners:
            t.join(timeout=JOIN_S)
        assert results == ["done"] * 4

    def test_start_twice_and_join_unstarted_raise(self):
        proc = Process(lambda: None)
        with pytest.raises(RuntimeError):
            proc.join(timeout=0.01)
        proc.start()
        with pytest.raises(RuntimeError):
            proc.start()
        proc.join(timeout=JOIN_S)

    def test_error_is_reraised_and_the_worker_survives(self):
        def boom():
            raise KeyError("inside process")

        def quiet():
            return threading.get_ident()

        a, b = run_on_same_worker(boom, quiet)
        assert isinstance(a._error, KeyError)
        with pytest.raises(KeyError):
            a.join(timeout=JOIN_S)
        assert b.join(timeout=JOIN_S) == a.ident

    def test_system_exit_in_a_body_does_not_kill_the_worker(self):
        def leave():
            raise SystemExit(3)

        a, b = run_on_same_worker(leave, threading.get_ident)
        with pytest.raises(SystemExit):
            a.join(timeout=JOIN_S)
        assert b.join(timeout=JOIN_S) == a.ident


class TestReuse:
    def test_finished_process_is_parked_before_it_reports_done(self):
        spawn(lambda: None).join(timeout=JOIN_S)
        assert thread_stats()["idle_workers"] >= 1

    def test_sequential_processes_start_no_new_thread(self):
        spawn(lambda: None).join(timeout=JOIN_S)
        before = thread_stats()["threads_started"]
        for _ in range(100):
            spawn(lambda: None).join(timeout=JOIN_S)
        assert thread_stats()["threads_started"] == before

    def test_concurrent_processes_each_own_a_thread(self):
        gate = threading.Event()
        procs = [spawn(gate.wait, JOIN_S) for _ in range(12)]
        assert len({p.ident for p in procs}) == 12
        gate.set()
        for p in procs:
            p.join(timeout=JOIN_S)

    def test_parked_worker_does_not_keep_the_result_alive(self):
        import gc
        import weakref

        class Big:
            pass

        proc = spawn(Big)
        ref = weakref.ref(proc.join(timeout=JOIN_S))
        del proc
        gc.collect()
        assert ref() is None

    def test_two_hundred_inner_products_start_no_thread_after_the_first(
        self, rt8
    ):
        expected = innerproduct.expected_inner_product(8 * 4)
        assert innerproduct.run(rt8, local_m=4) == expected
        started = thread_stats()["threads_started"]
        for _ in range(200):
            assert innerproduct.run(rt8, local_m=4) == expected
        assert thread_stats()["threads_started"] == started
        stats = rt8.machine.diagnostics()["processes"]
        assert stats["threads_started"] == started
        assert stats["idle_workers"] >= 8


class TestNoLeakBetweenProcesses:
    def test_process_identity_is_not_the_thread_ident(self):
        a, b = run_on_same_worker(current_process_id, current_process_id)
        assert a.result != b.result
        assert a.result < 0 and b.result < 0
        # Outside any process body the thread itself is the identity.
        assert current_process_id() == threading.get_ident()

    def test_mutable_owner_is_not_inherited_by_the_next_process(self):
        owned = []

        def owner():
            owned.append(Mutable(0, name="owned"))

        def heir():
            owned[-1].set(1)

        _, b = run_on_same_worker(owner, heir)
        with pytest.raises(SharedVariableConflictError):
            b.join(timeout=JOIN_S)
        assert owned[-1].get() == 0

    def test_fabric_context_left_open_does_not_reach_the_next_process(self):
        def leaky():
            # Entered and never exited: a body that dies mid-span.
            fabric.execution_context(
                processor=3, trace_id="leaked", hop=7, span_id="s-leak"
            ).__enter__()
            return fabric.snapshot_context()

        a, b = run_on_same_worker(leaky, fabric.snapshot_context)
        assert a.result == (3, "leaked", 7, "s-leak")
        assert b.result == (None, None, 0, None)

    def test_placed_process_sees_its_processor_and_the_next_does_not(self):
        machine = Machine(4)
        placed = machine.processor(2).spawn(fabric.current_processor)
        assert placed.join(timeout=JOIN_S) == 2
        for _ in range(20):
            assert spawn(fabric.current_processor).join(timeout=JOIN_S) is None


class TestNoStarvation:
    def test_blocked_process_does_not_hold_up_its_successor(self):
        """The body a pool of N would deadlock on: N+1 processes, each
        waiting for the next one's variable."""
        chain = [DefVar(f"link{i}") for i in range(33)]

        def link(i):
            value = chain[i + 1].read(timeout=JOIN_S)
            chain[i].define(value + 1)

        procs = [spawn(link, i) for i in range(32)]
        chain[32].define(0)
        for p in procs:
            p.join(timeout=JOIN_S)
        assert chain[0].read() == 32

    def test_two_concurrent_distributed_calls_sharing_a_vp_complete(self):
        """Copies of two calls share VPs 2 and 3; each copy blocks until
        the *other* call's copy on the same VP has arrived."""
        machine = Machine(6)
        am_util.load_all(machine)
        first = am_util.node_array(0, 1, 4)  # VPs 0..3
        second = am_util.node_array(2, 1, 4)  # VPs 2..5
        arrays = {}
        for key, procs in (("first", first), ("second", second)):
            arrays[key], _ = am_user.create_array(
                machine, "double", (8,), procs, ["block"]
            )
        arrived = {
            (key, vp): DefVar(f"{key}@{vp}")
            for key in ("first", "second") for vp in (2, 3)
        }
        other = {"first": "second", "second": "first"}

        def program(key):
            def body(ctx, index, section):
                vp = fabric.current_processor()
                if (key, vp) in arrived:
                    arrived[(key, vp)].define(True)
                    arrived[(other[key], vp)].read(timeout=JOIN_S)
                section.interior()[:] = float(vp)
            return body

        calls = [
            spawn(
                distributed_call, machine, procs, program(key),
                [Index(), Local(arrays[key])],
            )
            for key, procs in (("first", first), ("second", second))
        ]
        for call in calls:
            call.join(timeout=JOIN_S)
        values = [am_user.read_element(machine, arrays["second"], (i,))[0]
                  for i in range(8)]
        assert values == [2.0, 2.0, 3.0, 3.0, 4.0, 4.0, 5.0, 5.0]
