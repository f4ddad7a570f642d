"""Detector edge cases: heartbeats dropped, delayed, and duplicated.

``FaultPlan(kinds=("heartbeat",))`` aims message-level faults at the
detector's own traffic while leaving the data plane intact — the
detector must tolerate lossy evidence without hardening false verdicts
(beyond what its thresholds promise) and without ever *missing* a real
death.

Every machine here runs on a :class:`~repro.vp.clock.ManualClock`: an
observation window is a number of detector rounds the test steps, and a
delayed heartbeat arrives in the round its delay runs out.
"""

from __future__ import annotations

from repro.arrays import am_util
from repro.core.darray import DistributedArray
from repro.faults import FaultPlan, FaultyTransport, install_recovery
from repro.health import FailureDetector, HealthState
from repro.vp.clock import ManualClock
from repro.vp.machine import Machine
from tests.conftest import advance_until

INTERVAL = 1 / 64


def test_dropped_heartbeats_below_threshold_stay_alive():
    """Losing some heartbeats is indistinguishable from jitter: with
    drops well under the suspect window, nobody hardens to dead."""
    clock = ManualClock()
    machine = Machine(4, clock=clock)
    plan = FaultPlan(seed=7, drop=0.3, kinds=("heartbeat",))
    with FaultyTransport(machine, plan) as ft:
        detector = FailureDetector(
            machine, interval=INTERVAL, suspect_after=6.0, dead_after=40.0
        ).install()
        try:
            assert advance_until(
                clock, lambda: ft.stats.dropped >= 5, INTERVAL
            )
            # Survive a long observation window without a dead verdict.
            clock.advance(30 * INTERVAL)
            for p in range(4):
                assert detector.state_of(p) is not HealthState.DEAD
            dead = [
                e for e in detector.events() if e.transition == "dead"
            ]
            assert dead == []
        finally:
            detector.close()


def test_total_heartbeat_loss_is_a_timeout_death():
    """drop=1.0 on heartbeat traffic only: every VP but the monitor
    falls silent and hardens to dead — data traffic was never touched,
    so this is purely the detector's inference."""
    clock = ManualClock()
    machine = Machine(3, clock=clock)
    plan = FaultPlan(seed=1, drop=1.0, kinds=("heartbeat",))
    with FaultyTransport(machine, plan):
        detector = FailureDetector(
            machine, interval=INTERVAL, suspect_after=2.0, dead_after=6.0
        ).install()
        try:
            assert advance_until(
                clock,
                lambda: detector.state_of(1) is HealthState.DEAD
                and detector.state_of(2) is HealthState.DEAD,
                INTERVAL,
            )
            for event in detector.events():
                if event.transition == "dead":
                    assert event.reason == "timeout"
            assert not machine.is_failed(1)
        finally:
            detector.close()


def test_delayed_heartbeats_do_not_harden_dead_verdicts():
    """Delivery delay inflates inter-arrival jitter; the dead window is
    sized in heartbeat multiples, so bounded delay must not kill."""
    clock = ManualClock()
    machine = Machine(3, clock=clock)
    plan = FaultPlan(
        seed=3,
        delay=0.8,
        delay_seconds=INTERVAL,  # a full interval of extra latency
        kinds=("heartbeat",),
    )
    with FaultyTransport(machine, plan) as ft:
        detector = FailureDetector(
            machine, interval=INTERVAL, suspect_after=6.0, dead_after=40.0
        ).install()
        try:
            assert advance_until(
                clock, lambda: ft.stats.delayed >= 5, INTERVAL
            )
            clock.advance(30 * INTERVAL)
            assert not [
                e for e in detector.events() if e.transition == "dead"
            ]
        finally:
            detector.close()

    # Windows tight enough that an injected delay *can* trip suspicion
    # (suspect after 2 intervals, heartbeats up to 3 late) and still
    # inside the dead window of 6: suspicion stays reversible — it flaps
    # back, never hardens.
    for prob in (0.0, 0.3, 0.6):
        clock = ManualClock()
        machine = Machine(4, clock=clock)
        plan = FaultPlan(
            seed=11,
            delay=prob,
            delay_seconds=3 * INTERVAL,
            kinds=("heartbeat",),
        )
        with FaultyTransport(machine, plan):
            detector = FailureDetector(
                machine, interval=INTERVAL, suspect_after=2.0, dead_after=6.0
            ).install()
            try:
                clock.advance(80 * INTERVAL)
                seen = [e.transition for e in detector.events()]
            finally:
                detector.close()
        assert "dead" not in seen, f"delay={prob}"
        # At most one suspect a VP still in flight when observation ended.
        assert seen.count("suspect") - seen.count("alive") <= 4
        if not prob:
            # A fault-free fabric produces no suspicion at all.
            assert "suspect" not in seen


def test_duplicated_heartbeats_are_harmless():
    """Duplicates refresh last-seen twice; nothing transitions, and the
    received counter simply runs ahead of the emission count."""
    clock = ManualClock()
    machine = Machine(3, clock=clock)
    plan = FaultPlan(seed=5, duplicate=0.5, kinds=("heartbeat",))
    with FaultyTransport(machine, plan) as ft:
        detector = FailureDetector(
            machine, interval=INTERVAL, suspect_after=4.0, dead_after=12.0
        ).install()
        try:
            assert advance_until(
                clock, lambda: ft.stats.duplicated >= 5, INTERVAL
            )
            for p in range(3):
                assert detector.state_of(p) is HealthState.ALIVE
            assert not [
                e
                for e in detector.events()
                if e.transition in ("dead", "quarantine")
            ]
        finally:
            detector.close()


def test_flapping_under_lossy_heartbeats_never_double_fires_recovery():
    """Heavy heartbeat loss makes VPs flap suspect -> alive -> suspect;
    however many flaps occur, recovery fires at most once per VP that
    actually hardens to dead — and not at all here, because the drop
    rate keeps every VP under the dead window."""
    clock = ManualClock()
    machine = Machine(6, default_recv_timeout=5, clock=clock)
    am_util.load_all(machine)
    coordinator = install_recovery(machine)
    DistributedArray.create(
        machine, "double", (8, 8), [0, 1, 2, 3],
        (("block", 2), ("block", 2)), replication=1,
    )
    plan = FaultPlan(seed=11, drop=0.6, kinds=("heartbeat",))
    with FaultyTransport(machine, plan):
        # The dead window is deliberately enormous (1500 intervals): the
        # test is about suspect/alive flapping, and no run of drops may
        # harden a flap into a dead verdict and fire real recovery.
        detector = FailureDetector(
            machine, interval=INTERVAL, suspect_after=1.5, dead_after=1500.0
        ).install()
        try:
            # Wait for genuine flapping: at least one suspect and one
            # flap-back-alive somewhere.
            assert advance_until(
                clock,
                lambda: any(
                    e.transition == "alive" for e in detector.events()
                ),
                INTERVAL,
            )
            assert coordinator.recoveries == []
            # Per-VP sanity: dead verdicts (there should be none) never
            # outnumber one per episode.
            for p in range(6):
                dead = [
                    e
                    for e in detector.events()
                    if e.vp == p and e.transition == "dead"
                ]
                assert len(dead) == 0
        finally:
            detector.close()
