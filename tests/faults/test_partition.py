"""Partition injection: cut semantics, cut and heal, and transport wiring."""

from __future__ import annotations

import pytest

from repro.faults import (
    FaultPlan,
    FaultyTransport,
    PartitionCut,
    PartitionPlan,
    random_partitions,
)
from repro.vp.clock import ManualClock
from repro.vp.machine import Machine


class TestPartitionCut:
    def test_symmetric_cut_severs_both_directions(self):
        cut = PartitionCut("c", (0, 1), (2, 3))
        assert cut.crosses(0, 2)
        assert cut.crosses(3, 1)
        assert not cut.crosses(0, 1)
        assert not cut.crosses(2, 3)

    def test_asymmetric_cut_severs_one_way_only(self):
        cut = PartitionCut("c", (0,), (1,), symmetric=False)
        assert cut.crosses(0, 1)
        assert not cut.crosses(1, 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            PartitionCut("c", (), (1,))
        with pytest.raises(ValueError):
            PartitionCut("c", (0, 1), (1, 2))


class TestPartitionPlan:
    def test_scheduled_window_activates_and_heals(self):
        """A timed window is two timers on a clock, not a plan field."""
        clock = ManualClock()
        plan = PartitionPlan([PartitionCut("w", (1,), (0,))])
        plan.heal("w")
        clock.call_later(0.05, plan.cut, "w")
        clock.call_later(0.15, plan.heal, "w")
        assert plan.severs(1, 0) is None  # before the window
        clock.advance(0.07)
        assert plan.severs(1, 0) == "w"
        clock.advance(0.12)
        assert plan.severs(1, 0) is None  # healed on time

    def test_cut_and_heal_by_name(self):
        plan = PartitionPlan([PartitionCut("w", (1,), (0,))])
        assert plan.severs(1, 0) == "w"  # a cut starts active
        plan.heal("w")
        assert plan.severs(1, 0) is None
        plan.cut("w")
        assert plan.severs(1, 0) == "w"
        plan.heal()  # heal-all
        assert plan.active() == []

    def test_unknown_cut_name_rejected(self):
        plan = PartitionPlan([PartitionCut("w", (1,), (0,))])
        with pytest.raises(ValueError):
            plan.cut("nope")
        with pytest.raises(ValueError):
            PartitionPlan(
                [PartitionCut("d", (1,), (0,)), PartitionCut("d", (2,), (0,))]
            )

    def test_snapshot_reports_active_cuts_and_severed_count(self):
        plan = PartitionPlan([PartitionCut("w", (1,), (0,))])
        plan.severs(1, 0)
        snap = plan.snapshot()
        assert snap["cuts"] == ["w"]
        assert snap["active"] == ["w"]
        assert snap["severed"] == 1


class TestRandomPartitions:
    def test_same_seed_same_schedule(self):
        a = random_partitions(42, range(6), count=3)
        b = random_partitions(42, range(6), count=3)
        assert a == b
        assert a != random_partitions(43, range(6), count=3)

    def test_minority_never_contains_the_first_processor(self):
        """VP 0 (monitor / request entry point) stays on the majority
        side by default."""
        for seed in range(20):
            for cut in random_partitions(seed, range(6), count=2):
                assert 0 not in cut.side_a
                assert 0 in cut.side_b
                # Strict minority.
                assert len(cut.side_a) <= (6 - 1) // 2

    def test_validation(self):
        with pytest.raises(ValueError):
            random_partitions(0, [0])
        with pytest.raises(ValueError):
            random_partitions(0, range(4), isolate=[9])


class TestTransportComposition:
    def test_severed_messages_are_counted_and_discarded(self):
        machine = Machine(3)
        plan = PartitionPlan([PartitionCut("iso", (2,), (0, 1))])
        with FaultyTransport(
            machine, FaultPlan(seed=0), partitions=plan
        ) as ft:
            machine.send(0, 2, "lost", tag="t")
            machine.send(2, 0, "lost too", tag="t")
            machine.send(0, 1, "delivered", tag="t")
            assert ft.stats.partitioned == 2
            assert (
                machine.processor(1).mailbox.recv(tag="t", timeout=5.0).payload
                == "delivered"
            )
            # Nothing leaked across the cut.
            with pytest.raises(TimeoutError):
                machine.processor(2).mailbox.recv(tag="t", timeout=0.05)

    def test_oneway_cut_lets_replies_through(self):
        machine = Machine(2)
        plan = PartitionPlan(
            [PartitionCut("half", (1,), (0,), symmetric=False)]
        )
        with FaultyTransport(
            machine, FaultPlan(seed=0), partitions=plan
        ) as ft:
            machine.send(1, 0, "swallowed", tag="t")  # crosses a -> b
            machine.send(0, 1, "arrives", tag="t")  # b -> a unaffected
            assert ft.stats.partitioned == 1
            assert (
                machine.processor(1).mailbox.recv(tag="t", timeout=5.0).payload
                == "arrives"
            )

    def test_heal_restores_traffic_and_stats_survive(self):
        machine = Machine(2)
        plan = PartitionPlan([PartitionCut("iso", (1,), (0,))])
        with FaultyTransport(
            machine, FaultPlan(seed=0), partitions=plan
        ) as ft:
            machine.send(0, 1, "one", tag="t")
            plan.heal("iso")
            machine.send(0, 1, "two", tag="t")
            assert ft.stats.partitioned == 1
            assert (
                machine.processor(1).mailbox.recv(tag="t", timeout=5.0).payload
                == "two"
            )
            assert ft.stats.as_dict()["partitioned"] == 1
