"""Failure detector: lifecycle, verdicts, quarantine, and rejoin.

The machines run on a :class:`~repro.vp.clock.ManualClock`: a detector
round happens when the test advances the clock an interval, and the
partition tests cut and heal by hand, so the silence the detector
observes — and the round on which each verdict lands — is under explicit
test control.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arrays import am_user, am_util
from repro.arrays.manager import _records, get_array_manager
from repro.core.darray import DistributedArray
from repro.faults import (
    FaultPlan,
    FaultyTransport,
    PartitionCut,
    PartitionPlan,
    install_recovery,
)
from repro.health import FailureDetector, HealthState, install_detector
from repro.status import ProcessorFailedError, Status
from repro.vp.clock import ManualClock
from repro.vp.machine import Machine
from tests.conftest import advance_until

# Suspect after two intervals of silence, dead after six.  The interval
# is a power of two, so round times add up exactly.
INTERVAL = 1 / 64
SUSPECT_AFTER = 2.0
DEAD_AFTER = 6.0


def make_detector(machine, **overrides) -> FailureDetector:
    options = dict(
        interval=INTERVAL,
        suspect_after=SUSPECT_AFTER,
        dead_after=DEAD_AFTER,
    )
    options.update(overrides)
    return install_detector(machine, **options)


def isolation(vp: int, others) -> PartitionPlan:
    """A plan isolating ``vp``, initially healed."""
    plan = PartitionPlan(
        [PartitionCut("iso", (vp,), tuple(others))]
    )
    plan.heal("iso")
    return plan


def rounds(clock, predicate):
    """Run detector rounds until ``predicate`` holds (at most 400)."""
    return advance_until(clock, predicate, INTERVAL)


class TestLifecycle:
    def test_install_makes_detector_the_health_authority(self):
        clock = ManualClock()
        machine = Machine(3, clock=clock)
        detector = make_detector(machine)
        try:
            assert machine._health is detector
            assert detector.installed
            # Heartbeats flow: every VP stays alive.
            assert rounds(
                clock, lambda: detector.snapshot()["heartbeats_received"] > 6
            )
            for p in range(3):
                assert detector.state_of(p) is HealthState.ALIVE
                assert not detector.is_dead(p)
                assert not detector.is_suspect(p)
            diag = machine.diagnostics()
            assert diag["health"]["monitor"] == 0
            assert diag["health"]["states"] == {
                0: "alive", 1: "alive", 2: "alive"
            }
        finally:
            detector.close()
        assert machine._health is None
        assert machine.diagnostics()["health"] == {"enabled": False}

    def test_install_is_idempotent(self):
        machine = Machine(2)
        detector = make_detector(machine)
        try:
            assert install_detector(machine) is detector
        finally:
            detector.close()

    def test_validation(self):
        machine = Machine(2)
        with pytest.raises(ValueError):
            FailureDetector(machine, interval=0.0)
        with pytest.raises(ValueError):
            FailureDetector(machine, suspect_after=5.0, dead_after=3.0)
        with pytest.raises(Exception):
            FailureDetector(machine, monitor=7)

    def test_context_manager(self):
        machine = Machine(2)
        with FailureDetector(machine, interval=INTERVAL) as detector:
            assert machine._health is detector
        assert machine._health is None


class TestOracleIntegration:
    def test_scripted_kill_is_an_immediate_dead_verdict(self):
        machine = Machine(3, clock=ManualClock())
        detector = make_detector(machine)
        try:
            verdicts = []
            detector.add_listener(verdicts.append)
            machine.fail(2)
            # No round runs: the oracle listener fires synchronously.
            assert detector.state_of(2) is HealthState.DEAD
            assert detector.is_dead(2)
            dead = [e for e in verdicts if e.transition == "dead"]
            assert dead and dead[0].vp == 2 and dead[0].reason == "oracle"
        finally:
            detector.close()

    def test_straggler_heartbeat_from_oracle_dead_vp_is_ignored(self):
        machine = Machine(3, clock=ManualClock())
        detector = make_detector(machine)
        try:
            machine.fail(2)
            assert detector.state_of(2) is HealthState.DEAD
            # Forge a late heartbeat from the corpse: the oracle outranks
            # inference, so no quarantine happens.
            from repro.vp.message import Message

            detector._on_heartbeat(
                Message(source=2, dest=0, payload=("heartbeat", 2),
                        tag="heartbeat", kind="heartbeat")
            )
            assert detector.state_of(2) is HealthState.DEAD
            assert detector.false_positives == 0
        finally:
            detector.close()


class TestSilenceVerdicts:
    def test_partition_silence_drives_suspect_then_dead(self):
        clock = ManualClock()
        machine = Machine(3, clock=clock)
        plan = isolation(2, (0, 1))
        with FaultyTransport(machine, FaultPlan(seed=0), partitions=plan):
            detector = make_detector(machine)
            try:
                # Rounds at 0, 1, 2, 3 and 4 intervals: VP 2 last heard
                # from at 4.
                clock.advance(4 * INTERVAL)
                assert detector.snapshot()["heartbeats"][2] == 5
                plan.cut("iso")
                clock.advance(10 * INTERVAL)
                # Silence is judged against the thresholds exactly: it
                # first exceeds two intervals on the third round after the
                # cut, six on the seventh.
                verdicts = [
                    (e.vp, e.transition, e.at / INTERVAL)
                    for e in detector.events()
                ]
                assert verdicts == [(2, "suspect", 7.0), (2, "dead", 11.0)]
                # Not an oracle death: the fabric lost the VP, the
                # machine did not.
                assert not machine.is_failed(2)
                assert machine.is_unavailable(2)
            finally:
                detector.close()

    def test_false_positive_heals_into_quarantine_and_rejoin(self):
        clock = ManualClock()
        machine = Machine(3, clock=clock)
        plan = isolation(2, (0, 1))
        with FaultyTransport(machine, FaultPlan(seed=0), partitions=plan):
            detector = make_detector(machine)
            try:
                plan.cut("iso")
                assert rounds(
                    clock, lambda: detector.state_of(2) is HealthState.DEAD
                )
                plan.heal("iso")
                assert rounds(
                    clock, lambda: detector.state_of(2) is HealthState.ALIVE
                )
                assert detector.false_positives == 1
                assert detector.rejoins == 1
                order = [
                    e.transition for e in detector.events() if e.vp == 2
                ]
                assert order == ["suspect", "dead", "quarantine", "rejoin"]
            finally:
                detector.close()

    def test_send_to_suspect_is_delivered_and_to_dead_raises(self):
        """A verdict changes no route: a send to a suspected but live VP
        is delivered at once, nothing buffered; after the oracle kills it
        the same send raises."""
        clock = ManualClock()
        machine = Machine(3, clock=clock)
        # One-way: VP 2's heartbeats to the monitor vanish, 0 -> 2 flows.
        plan = PartitionPlan(
            [PartitionCut("mute", (2,), (0,), symmetric=False)]
        )
        with FaultyTransport(machine, FaultPlan(seed=0), partitions=plan):
            detector = make_detector(machine, dead_after=1000.0)
            try:
                assert rounds(clock, lambda: detector.is_suspect(2))
                machine.send(0, 2, "now", tag="t")
                message = machine.processor(2).mailbox.recv(
                    tag="t", timeout=0
                )
                assert message.payload == "now"
                assert detector.state_of(2) is HealthState.SUSPECT
                machine.fail(2)
                with pytest.raises(ProcessorFailedError):
                    machine.send(0, 2, "now", tag="t")
            finally:
                detector.close()

    def test_verdicts_repeat_under_one_schedule(self):
        """Seeded heartbeat drops and delays, then a cut and a heal: two
        runs on a manual clock give the same verdicts at the same
        times."""

        def run():
            clock = ManualClock()
            machine = Machine(4, clock=clock)
            plan = isolation(3, (0, 1, 2))
            faults = FaultPlan(
                seed=21,
                drop=0.3,
                delay=0.3,
                delay_seconds=3 * INTERVAL,
                kinds=("heartbeat",),
            )
            with FaultyTransport(machine, faults, partitions=plan) as ft:
                detector = make_detector(machine)
                try:
                    clock.advance(40 * INTERVAL)
                    plan.cut("iso")
                    clock.advance(20 * INTERVAL)
                    plan.heal("iso")
                    clock.advance(20 * INTERVAL)
                finally:
                    detector.close()
            assert ft.stats.dropped and ft.stats.delayed
            return [(e.vp, e.transition, e.at) for e in detector.events()]

        first = run()
        isolated = [transition for vp, transition, _ in first if vp == 3]
        assert isolated.index("dead") < isolated.index("rejoin")
        assert first == run()


class TestFlapping:
    def test_flapping_suspect_never_fires_recovery(self):
        """suspect -> alive -> suspect flaps stay non-destructive: no
        dead verdict, no recovery, membership untouched."""
        clock = ManualClock()
        machine = Machine(6, default_recv_timeout=5, clock=clock)
        am_util.load_all(machine)
        coordinator = install_recovery(machine)
        arr = DistributedArray.create(
            machine, "double", (8, 8), [0, 1, 2, 3],
            (("block", 2), ("block", 2)), replication=1,
        )
        before = tuple(
            get_array_manager(machine)
            .durability_state(arr.array_id)
            .processors
        )
        plan = isolation(3, (0, 1, 2, 4, 5))
        with FaultyTransport(machine, FaultPlan(seed=0), partitions=plan):
            # dead_after high enough that a flap window (one suspect
            # round) cannot harden into a dead verdict.
            detector = make_detector(machine, dead_after=400.0)
            try:
                flaps = 0
                for _ in range(3):
                    plan.cut("iso")
                    assert rounds(clock, lambda: detector.is_suspect(3))
                    plan.heal("iso")
                    assert rounds(
                        clock,
                        lambda: detector.state_of(3) is HealthState.ALIVE,
                    )
                    flaps += 1
                events = [e for e in detector.events() if e.vp == 3]
                assert [e for e in events if e.transition == "suspect"]
                assert [e for e in events if e.transition == "alive"]
                assert not [e for e in events if e.transition == "dead"]
                assert coordinator.recoveries == []
                state = get_array_manager(machine).durability_state(
                    arr.array_id
                )
                assert tuple(state.processors) == before
                assert state.sections_rebuilt == 0
            finally:
                detector.close()


class TestDetectorDrivenRecovery:
    def test_verdict_triggers_recovery_and_heal_rejoins_cleanly(self):
        """The full §9 arc: partition -> dead verdict -> recovery moves
        the lost section -> heal -> quarantine -> rejoin, with the
        falsely-declared-dead VP fenced out of ownership and recovery
        fired exactly once."""
        clock = ManualClock()
        machine = Machine(6, default_recv_timeout=5, clock=clock)
        am_util.load_all(machine)
        coordinator = install_recovery(machine)
        arr = DistributedArray.create(
            machine, "double", (8, 8), [0, 1, 2, 3],
            (("block", 2), ("block", 2)), replication=1,
        )
        expected = np.arange(64, dtype=float).reshape(8, 8)
        assert (
            am_user.write_region(
                machine, arr.array_id, [(0, 8), (0, 8)], expected
            )
            is Status.OK
        )
        manager = get_array_manager(machine)
        plan = isolation(3, (0, 1, 2, 4, 5))
        with FaultyTransport(machine, FaultPlan(seed=0), partitions=plan):
            detector = make_detector(machine)
            try:
                plan.cut("iso")
                assert rounds(
                    clock, lambda: detector.state_of(3) is HealthState.DEAD
                )
                # Recovery ran off the detector verdict (no oracle kill),
                # inside the round that gave it.
                assert not machine.is_failed(3)
                assert (
                    3
                    not in manager.durability_state(arr.array_id).processors
                )
                ok = [r for r in coordinator.recoveries if r.get("ok")]
                assert len(ok) == 1 and ok[0]["dead"] == 3
                plan.heal("iso")
                assert rounds(
                    clock, lambda: detector.state_of(3) is HealthState.ALIVE
                )
                # Rejoin must not have re-fired recovery or changed
                # membership again.
                assert len(coordinator.recoveries) == 1
                state = manager.durability_state(arr.array_id)
                assert 3 not in state.processors
                # One owner per section: the rejoined VP freed its stale
                # copy instead of keeping a second live owner.
                record = _records(machine.processor(3)).get(arr.array_id)
                assert record is None or record.section is None
            finally:
                detector.close()
        assert (
            am_user.verify_array(machine, arr.array_id, 2, [0, 0, 0, 0], "row")
            is Status.OK
        )
        assert np.array_equal(arr.to_numpy(), expected)
