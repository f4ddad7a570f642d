"""Observer lifecycle, instrumentation feeds, and diagnostics."""

import threading
import time

import pytest

from repro.core.runtime import IntegratedRuntime
from repro.obs.observer import Observer
from repro.pcn.defvar import DefVar
from repro.vp.machine import Machine
from repro.vp.message import Message


@pytest.fixture()
def machine():
    m = Machine(4)
    yield m
    observer = getattr(m, "_observer", None)
    if observer is not None:
        observer.close()


@pytest.fixture()
def rt():
    runtime = IntegratedRuntime(4)
    yield runtime
    if runtime.observer is not None:
        runtime.observer.close()


class TestLifecycle:
    def test_observe_installs_and_close_uninstalls(self, machine):
        observer = machine.observe()
        assert machine.observer is observer
        assert observer.installed
        assert len(machine.transport_stack) == 1
        observer.close()
        assert machine.observer is None
        assert not observer.installed
        assert len(machine.transport_stack) == 0

    def test_observe_is_idempotent(self, machine):
        assert machine.observe() is machine.observe()

    def test_context_manager_form(self, machine):
        with machine.observe() as observer:
            assert machine.observer is observer
        assert machine.observer is None

    def test_data_readable_after_close(self, machine):
        observer = machine.observe()
        with observer.span("phase"):
            pass
        observer.close()
        assert len(observer.recorder.spans()) == 1

    def test_runtime_observe_convenience(self, rt):
        observer = rt.observe()
        assert rt.observer is observer
        assert isinstance(observer, Observer)


class TestMessageEvents:
    def test_routed_message_recorded(self, machine):
        observer = machine.observe()
        machine.route(Message(source=0, dest=1, payload="x"))
        machine.processor(1).mailbox.recv(timeout=5)
        (event,) = [
            e for e in observer.events() if e["type"] == "message"
        ]
        assert event["source"] == 0 and event["dest"] == 1
        assert event["trace"] is not None
        assert event["nbytes"] > 0

    def test_event_log_bounded(self, machine):
        observer = Observer(machine, max_events=3).install()
        for i in range(5):
            observer._record_event({"type": "message", "ts": float(i)})
        assert len(observer.events()) == 3
        assert observer.events_dropped == 2


class TestMetricFeeds:
    def test_mailbox_depth_and_wait_metrics(self, machine):
        observer = machine.observe()
        machine.route(Message(source=0, dest=1, payload="x"))
        machine.processor(1).mailbox.recv(timeout=5)
        snap = observer.metrics.snapshot()
        assert snap['repro_mailbox_delivered_total{vp="1"}'] == 1
        assert snap['repro_mailbox_depth{vp="1"}'] == 0
        assert snap['repro_mailbox_recv_wait_seconds{vp="1"}']["count"] == 1

    def test_process_spawn_metrics(self, machine):
        observer = machine.observe()
        machine.processor(2).spawn(lambda node: None, machine.processor(2)).join()
        snap = observer.metrics.snapshot()
        assert snap['repro_processes_spawned_total{vp="2"}'] >= 1
        assert machine.diagnostics()["live_processes"].get(2, 0) == 0

    def test_defvar_suspension_counted(self, machine):
        observer = machine.observe()
        v = DefVar("probe")
        t = threading.Thread(target=lambda: v.read(timeout=5))
        t.start()
        time.sleep(0.05)
        v.define(1)
        t.join()
        snap = observer.metrics.snapshot()
        assert snap['repro_defvar_suspensions_total{vp="main"}'] == 1

    def test_suspend_hook_removed_on_close(self, machine):
        observer = machine.observe()
        observer.close()
        v = DefVar("probe")
        t = threading.Thread(target=lambda: v.read(timeout=5))
        t.start()
        time.sleep(0.05)
        v.define(1)
        t.join()
        assert (
            "repro_defvar_suspensions_total{vp=\"main\"}"
            not in observer.metrics.snapshot()
        )

    def test_fault_injection_metrics(self, rt):
        from repro.faults.plan import FaultPlan

        observer = rt.observe()
        plan = FaultPlan(seed=7, drop=1.0)  # drop everything
        with rt.inject_faults(plan):
            rt.machine.route(Message(source=0, dest=1, payload="x"))
        snap = observer.metrics.snapshot()
        assert snap['repro_faults_injected_total{type="drop"}'] == 1

    def test_replica_update_metrics(self, rt):
        from repro.core.darray import DistributedArray

        observer = rt.observe()
        arr = DistributedArray.create(
            rt.machine, "double", (8,), rt.processors(0, 2),
            [("block", 2)], replication=1,
        )
        arr[0] = 1.0
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            snap = observer.metrics.snapshot()
            if snap.get("repro_replica_updates_total", 0) >= 1:
                break
            time.sleep(0.01)
        assert snap["repro_replica_updates_total"] >= 1
        arr.free()

    def test_processor_added_under_observation_is_covered(self, machine):
        observer = machine.observe()
        new = machine.add_processor()
        machine.send(source=0, dest=new, payload="welcome")
        machine.processor(new).mailbox.recv(source=0, timeout=5)
        snap = observer.metrics.snapshot()
        assert snap[f'repro_mailbox_delivered_total{{vp="{new}"}}'] == 1
        assert snap[f'repro_mailbox_recv_wait_seconds{{vp="{new}"}}'][
            "count"
        ] == 1
        assert machine.diagnostics()["live_processes"].get(new, 0) == 0


class TestDeadlockDump:
    def test_watchdog_dumps_wait_graph_and_spans(self, machine):
        from repro.faults.watchdog import Watchdog
        from repro.status import DeadlockError

        observer = machine.observe()
        never = DefVar("never-defined")

        def stuck(node):
            with observer.span("stuck-phase"):
                never.read(timeout=10)

        proc = machine.processor(1).spawn(
            stuck, machine.processor(1), name="stuck@1"
        )
        watchdog = Watchdog(machine, poll=0.01, grace=0.05)
        with pytest.raises(DeadlockError):
            watchdog.join([proc])
        never.define(None)  # release the thread
        proc.join()
        (dump,) = [e for e in observer.events() if e["type"] == "deadlock"]
        assert any("never-defined" in edge for edge in dump["wait_graph"])
        assert 1 in dump["spans_by_vp"]
        assert observer.metrics.snapshot()["repro_deadlocks_total"] == 1


class TestDiagnostics:
    def test_machine_diagnostics_without_observer(self, machine):
        assert machine.diagnostics()["observability"] == {"enabled": False}

    def test_machine_diagnostics_with_observer(self, machine):
        observer = machine.observe()
        with observer.span("phase"):
            pass
        diag = machine.diagnostics()["observability"]
        assert diag["enabled"] is True
        assert diag["spans"] == 1
        assert isinstance(diag["metrics"], dict)

    def test_metrics_name_only_the_fed_instruments(self, rt):
        """Every counter a subsystem keeps for itself (the coalescer's,
        the array's, the machine's) is read from ``diagnostics()``; the
        metrics snapshot holds what the observer fed, nothing else."""
        observer = rt.observe()
        arr = rt.array("double", (8,), distrib=["block"])
        for i in range(8):
            arr[i] = float(i)
        assert arr[3] == 3.0
        arr.free()
        rt.machine.route(Message(source=0, dest=1, payload="x"))
        rt.machine.processor(1).mailbox.recv(timeout=5)
        diag = rt.machine.diagnostics()
        snap = diag["observability"]["metrics"]
        instruments = observer.metrics.instruments()
        assert len(snap) == len(instruments) > 0
        assert {key.split("{")[0] for key in snap} == {
            inst.name for inst in instruments
        } <= {
            "repro_mailbox_delivered_total", "repro_mailbox_depth",
            "repro_mailbox_recv_wait_seconds",
            "repro_processes_spawned_total",
            "repro_defvar_suspensions_total",
        }
        assert diag["perf"]["coalesced_writes"] >= 1

    def test_span_summary_orders_by_total_time(self, machine):
        observer = machine.observe()
        with observer.span("slow"):
            time.sleep(0.02)
        with observer.span("fast"):
            pass
        summary = observer.span_summary()
        assert [row[0] for row in summary] == ["slow", "fast"]
        assert summary[0][1] == 1
