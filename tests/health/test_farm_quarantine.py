"""TaskFarm x FailureDetector: park suspects, retire the confirmed dead,
revive false positives.  The detector's rounds run on a
:class:`~repro.vp.clock.ManualClock` the tests step."""

from __future__ import annotations

import threading
import time

from repro.core.farm import TaskFarm
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


def harness(dead_after=10_000.0):
    """Machine with VP 2 isolatable; farm groups [(1,), (2,)]."""
    machine = Machine(3, clock=ManualClock())
    plan = PartitionPlan([PartitionCut("iso", (2,), (0, 1))])
    plan.heal("iso")
    transport = FaultyTransport(
        machine, FaultPlan(seed=0), partitions=plan
    ).install()
    detector = FailureDetector(
        machine, interval=INTERVAL, suspect_after=2.0, dead_after=dead_after
    ).install()
    farm = TaskFarm([(1,), (2,)])
    farm.attach_detector(detector)
    return machine, plan, transport, detector, farm


def rounds(machine, predicate):
    """Run detector rounds until ``predicate`` holds (at most 400)."""
    return advance_until(machine.clock, predicate, INTERVAL)


def teardown(transport, detector, farm):
    farm.detach_detector()
    detector.close()
    transport.uninstall()


def test_suspected_group_parks_until_proven_alive():
    machine, plan, transport, detector, farm = harness()
    try:
        plan.cut("iso")
        assert rounds(machine, lambda: 1 in farm._quarantined)
        # Every job lands on the healthy group; the parked worker pulls
        # nothing and the run still completes.
        result = farm.run([lambda group: group for _ in range(6)], timeout=30.0)
        assert result.results == [(1,)] * 6
        assert result.jobs_per_group == [6, 0]
        assert result.dead_groups == []
        # Heal: the flap back to alive unparks the group.
        plan.heal("iso")
        assert rounds(machine, lambda: farm._quarantined == set())
        slow = lambda group: (time.sleep(0.02), group)[1]  # noqa: E731
        result = farm.run([slow for _ in range(8)], timeout=30.0)
        assert result.jobs_per_group[1] > 0
    finally:
        teardown(transport, detector, farm)


def test_inflight_timeout_on_parked_group_requeues_the_job():
    machine, plan, transport, detector, farm = harness()
    try:
        grabbed = threading.Event()
        release = threading.Event()

        def sticky(group):
            if group == (2,) and not release.is_set():
                grabbed.set()
                release.wait(timeout=20.0)
                raise TimeoutError("peer went silent mid-job")
            # The healthy group idles until the doomed group has its job
            # in flight, so one job is guaranteed to ride the timeout.
            grabbed.wait(timeout=20.0)
            return group

        def orchestrate():
            assert grabbed.wait(timeout=20.0)
            plan.cut("iso")
            assert rounds(machine, lambda: 1 in farm._quarantined)
            release.set()

        driver = threading.Thread(target=orchestrate)
        driver.start()
        result = farm.run([sticky, sticky], timeout=30.0)
        driver.join(timeout=20.0)
        # The job that timed out while its group was parked was requeued
        # and completed by the healthy group — not failed, not lost.
        assert sorted(result.results) == [(1,), (1,)]
        assert result.requeued_jobs >= 1
        assert result.dead_groups == []
    finally:
        teardown(transport, detector, farm)


def test_dead_verdict_retires_group_and_rejoin_revives_it():
    machine, plan, transport, detector, farm = harness(dead_after=6.0)
    try:
        plan.cut("iso")
        assert rounds(
            machine, lambda: detector.state_of(2) is HealthState.DEAD
        )
        assert 1 in farm._dead_by_verdict
        assert farm._quarantined == set()
        slow = lambda group: (time.sleep(0.02), group)[1]  # noqa: E731
        result = farm.run([slow for _ in range(4)], timeout=30.0)
        assert result.results == [(1,)] * 4
        assert result.dead_groups == [1]
        # Heal: quarantine -> rejoin -> the group is a worker again.
        plan.heal("iso")
        assert rounds(
            machine, lambda: detector.state_of(2) is HealthState.ALIVE
        )
        assert farm._dead_by_verdict == set()
        slow = lambda group: (time.sleep(0.02), group)[1]  # noqa: E731
        result = farm.run([slow for _ in range(8)], timeout=30.0)
        assert result.jobs_per_group[1] > 0
        assert result.dead_groups == []
    finally:
        teardown(transport, detector, farm)
