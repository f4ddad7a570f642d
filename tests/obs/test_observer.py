"""Observer lifecycle, message events, deadlock dumps, and diagnostics."""

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

    def test_event_ring_bounded(self, machine):
        observer = Observer(machine, max_events=3).install()
        for i in range(5):
            observer._record_event({"type": "message", "ts": float(i)})
        assert len(observer.events()) == 3
        assert observer.events_dropped == 2


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

    def test_span_summary_orders_by_total_time(self, machine):
        observer = machine.observe()
        with observer.span("slow"):
            time.sleep(0.02)
        with observer.span("fast"):
            pass
        summary = observer.span_summary()
        assert [row[0] for row in summary] == ["slow", "fast"]
        assert summary[0][1] == 1
