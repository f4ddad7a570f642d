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
        assert 'repro_live_processes{vp="2"}' in snap

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

    def test_span_summary_orders_by_total_time(self, machine):
        observer = machine.observe()
        with observer.span("slow"):
            time.sleep(0.02)
        with observer.span("fast"):
            pass
        summary = observer.span_summary()
        assert [row[0] for row in summary] == ["slow", "fast"]
        assert summary[0][1] == 1


class TestViews:
    """A series whose event a subsystem counts for itself is read from
    that counter at export: it counts from machine start, agrees with
    ``Machine.diagnostics()`` by construction, and is fed by nobody."""

    @staticmethod
    def work(rt, arr, move):
        """Element writes and two reads, a checkpoint, a planned
        ``heat_steps`` call and a migration."""
        from repro.calls import Local, Reduce
        from repro.spmd.stencil import heat_steps
        from repro.status import Status

        for i in range(8):
            arr[i, i] = float(i)
        assert arr[5, 5] == 5.0 and arr[6, 6] == 6.0
        arr.checkpoint()
        result = rt.call(
            list(arr.processors), heat_steps,
            [2, 2, 2, Local(arr.array_id), Reduce("double", 1, "max")],
        )
        assert result.status is Status.OK
        assert arr.migrate(move) == list(move)

    @staticmethod
    def cut_until_dead(clock, detector, plan):
        """VP 7 falls silent behind a cut and is declared dead.  Rounds
        run only when the test advances the machine's clock, so no
        heartbeat arrives while the test reads."""
        from repro.health import HealthState
        from tests.conftest import advance_until

        clock.advance(0)  # the round due at install
        assert detector.heartbeats_received == 8
        plan.cut("iso")
        assert advance_until(
            clock,
            lambda: detector.state_of(7) is HealthState.DEAD,
            detector.interval,
        )

    @staticmethod
    def heal_and_rejoin(clock, detector, plan):
        """The cut heals and VP 7 rejoins: with the above, a suspicion, a
        false positive and four verdicts in the detector's log."""
        from repro.health import HealthState

        plan.heal("iso")
        clock.advance(detector.interval)
        assert detector.state_of(7) is HealthState.ALIVE

    def test_every_view_equals_its_owners_counter(self):
        import collections
        import re

        from repro.core.darray import DistributedArray
        from repro.faults import (
            FaultPlan, FaultyTransport, PartitionCut, PartitionPlan,
        )
        from repro.health import install_detector
        from repro.obs.views import VIEWS
        from repro.vp.clock import ManualClock

        rt = IntegratedRuntime(8, default_recv_timeout=20)
        machine = rt.machine
        # Before anything reads it: the detector's rounds run only when
        # the test advances this clock.
        machine.clock = clock = ManualClock()
        arr = DistributedArray.create(
            machine, "double", (8, 8), [0, 1, 2, 3],
            [("block", 2), ("block", 2)], borders=[2] * 4, replication=1,
        )
        plan = PartitionPlan([PartitionCut("iso", (7,), tuple(range(7)))])
        plan.heal("iso")
        detector = install_detector(
            machine, interval=1 / 64, suspect_after=2.0, dead_after=6.0
        )
        try:
            self.work(rt, arr, {1: 4})
            with FaultyTransport(machine, FaultPlan(seed=0), partitions=plan):
                self.cut_until_dead(clock, detector, plan)
                observer = rt.observe()
                self.heal_and_rejoin(clock, detector, plan)
            self.work(rt, arr, {2: 5})
            release = DefVar("release")
            blocked = machine.processor(3).spawn(release.read, 10)

            diag = machine.diagnostics()
            snap = diag["observability"]["metrics"]
            text = observer.metrics.to_prometheus()
            assert observer.metrics.snapshot() == snap  # nothing moved
            release.define(None)
            blocked.join()
        finally:
            detector.close()
            if rt.observer is not None:
                rt.observer.close()

        array_key = str(arr.array_id.as_tuple())
        perf, array = diag["perf"], diag["arrays"][array_key]
        health = diag["health"]
        verdicts = collections.Counter(
            (e.vp, e.transition) for e in detector.events()
        )
        expected = {
            "repro_routed_messages_total": diag["routed_messages"],
            "repro_routed_bytes_total": diag["routed_bytes"],
            "repro_perf_flushes_total": perf["flushes"],
            "repro_perf_coalesced_writes_total": perf["coalesced_writes"],
            "repro_perf_inline_batches_total":
                perf["coalescer"]["inline_batches"],
            "repro_comm_plans_compiled_total": perf["comm_plans"]["compiled"],
            "repro_comm_plans_hits_total": perf["comm_plans"]["hits"],
            "repro_comm_plans_invalidations_total":
                perf["comm_plans"]["invalidations"],
            "repro_halo_exchanges_total": perf["comm_plans"]["exchanges"],
            "repro_halo_strips_total": perf["comm_plans"]["strips_claimed"],
            "repro_halo_bytes_total": perf["comm_plans"]["bytes_claimed"],
        }
        for metric, key in (
            ("repro_array_epoch", "epoch"),
            ("repro_sections_rebuilt_total", "sections_rebuilt"),
            ("repro_sections_migrated_total", "sections_migrated"),
            ("repro_fenced_writes_total", "fenced_writes"),
            ("repro_replica_stale_rejects_total",
             "stale_replica_updates_rejected"),
        ):
            expected[f'{metric}{{array="{array_key}"}}'] = array[key]
        for vp in range(8):
            label = f'{{vp="{vp}"}}'
            expected["repro_live_processes" + label] = (
                diag["live_processes"].get(vp, 0)
            )
            expected["repro_heartbeats_total" + label] = (
                health["heartbeats"][vp]
            )
            expected["repro_health_suspicions_total" + label] = (
                verdicts[vp, "suspect"]
            )
            expected["repro_health_false_positives_total" + label] = (
                verdicts[vp, "quarantine"]
            )
        for (vp, transition), count in verdicts.items():
            expected[
                "repro_health_transitions_total"
                f'{{transition="{transition}",vp="{vp}"}}'
            ] = count

        # Every row of the table is checked, and nothing else is a view.
        viewed = {row[0] for row in VIEWS}
        assert {key.split("{")[0] for key in expected} == viewed
        assert {
            key: value for key, value in snap.items()
            if key.split("{")[0] in viewed
        } == expected

        # The work above happened, on both sides of observe(): a count
        # that started at observe() would be about half of these.
        assert perf["flushes"] >= 4 and perf["coalesced_writes"] == 16
        assert perf["comm_plans"]["exchanges"] >= 8
        assert array["sections_migrated"] == 2 and array["epoch"] >= 4
        assert expected['repro_live_processes{vp="3"}'] == 1
        assert sum(health["heartbeats"].values()) == (
            health["heartbeats_received"]
        )
        assert sum(verdicts.values()) == health["transitions"] >= 4
        assert verdicts[7, "suspect"] >= 1
        assert verdicts[7, "quarantine"] == health["false_positives"] == 1

        # The exposition parses line by line and says the same.
        line = re.compile(
            r'([a-zA-Z_:][a-zA-Z0-9_:]*)'
            r'(\{[a-zA-Z_]\w*="(?:[^"\\\n]|\\["\\n])*"'
            r'(?:,[a-zA-Z_]\w*="(?:[^"\\\n]|\\["\\n])*")*\})?'
            r' (-?[0-9.]+(?:e[-+]?[0-9]+)?)'
        )
        exposed = {}
        for row in text.splitlines():
            if not row.startswith("#"):
                match = line.fullmatch(row)
                assert match, row
                exposed[match[1] + (match[2] or "")] = float(match[3])
        for key, value in expected.items():
            assert exposed[key] == value, key

    def test_a_freed_arrays_series_end_with_it(self):
        rt = IntegratedRuntime(4)
        observer = rt.observe()
        arr = rt.array("double", (8,), distrib=["block"])
        key = f'repro_array_epoch{{array="{arr.array_id.as_tuple()}"}}'
        assert observer.metrics.snapshot()[key] == 0
        arr.free()
        assert key not in observer.metrics.snapshot()
        observer.close()

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
        assert snap[f'repro_live_processes{{vp="{new}"}}'] == 0
