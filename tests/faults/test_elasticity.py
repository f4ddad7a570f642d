"""Elastic placement under failure: unrecoverable arrays repaired by
runtime growth, and planned migration surviving message faults and a
mid-migration kill.

The closing loop of the elasticity story: recovery that finds *no spare
processor* records the fact instead of raising; ``Machine.add_processor``
then grows the membership pool at runtime and ``rebalance()`` repairs the
array through the same transactional mover recovery uses — with contents
bit-identical to the pre-failure state.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arrays import am_user, am_util
from repro.arrays.manager import get_array_manager
from repro.core.darray import DistributedArray
from repro.faults import FaultPlan, FaultyTransport, KillSpec, install_recovery
from repro.status import Status
from repro.vp.machine import Machine

DISTRIB_2X2 = (("block", 2), ("block", 2))
MAX_MIGRATE_ATTEMPTS = 8


def make_array(machine, replication=1, procs=(0, 1, 2, 3)):
    return DistributedArray.create(
        machine, "double", (8, 8), list(procs), DISTRIB_2X2,
        replication=replication,
    )


def durability(machine, arr):
    return get_array_manager(machine).durability_state(arr.array_id)


# -- no spare: record, grow, repair -------------------------------------------


class TestGrowToRepair:
    def test_no_spare_is_recorded_then_repaired_by_growth(self):
        """The full elastic loop: a failure with nowhere to rebuild is
        *logged* (never raised) and leaves the section pending, not lost;
        adding a processor and rebalancing repairs the array
        bit-identically."""
        machine = Machine(4, default_recv_timeout=10)
        am_util.load_all(machine)
        coordinator = install_recovery(machine)
        arr = make_array(machine, replication=1)
        ref = np.arange(64, dtype=float).reshape(8, 8)
        arr.from_numpy(ref)

        machine.fail(2)  # every VP hosts a section: nowhere to rebuild

        state = durability(machine, arr)
        assert state.lost == {}  # pending: a spare can still rebuild it
        assert state.sections_rebuilt == 0
        event = coordinator.recoveries[-1]
        assert not event["ok"] and event["error"] == "no spare processor"
        diag = machine.diagnostics()["arrays"][str(arr.array_id.as_tuple())]
        assert diag["lost"] == {}
        assert diag["placement"][2]["owner"] == 2  # still the corpse

        new = machine.add_processor()
        moved = arr.rebalance()

        assert moved == [2]
        state = durability(machine, arr)
        assert state.processors == (0, 1, new, 3)
        assert np.array_equal(arr.to_numpy(), ref)
        assert (
            am_user.verify_array(machine, arr.array_id, 2, [0, 0, 0, 0], "row")
            is Status.OK
        )
        diag = machine.diagnostics()["arrays"][str(arr.array_id.as_tuple())]
        assert diag["placement"][2]["owner"] == new

    def test_rebalance_without_spare_is_invalid_not_crash(self):
        machine = Machine(4, default_recv_timeout=10)
        am_util.load_all(machine)
        install_recovery(machine)
        arr = make_array(machine, replication=1)
        arr.from_numpy(np.ones((8, 8)))
        machine.fail(1)
        _moved, status = am_user.rebalance_array(machine, arr.array_id)
        assert status is Status.INVALID  # still no spare: planning fails

    def test_unreplicated_unrecoverable_repairs_from_checkpoint(self):
        machine = Machine(4, default_recv_timeout=10)
        am_util.load_all(machine)
        install_recovery(machine)
        arr = make_array(machine, replication=0)
        ref = np.arange(64, dtype=float).reshape(8, 8)
        arr.from_numpy(ref)
        arr.checkpoint()
        machine.fail(3)
        assert durability(machine, arr).lost == {}  # pending: no spare yet
        machine.add_processor()
        moved = arr.rebalance()
        assert moved == [3]
        assert np.array_equal(arr.to_numpy(), ref)


# -- migration racing failure -------------------------------------------------


class TestMidMigrationKill:
    def test_destination_killed_mid_migration_rolls_back(self):
        """The destination dies on the adopt message itself: the kill
        reenters recovery on the migrating thread, the move aborts, and
        the array remains intact on its original owners."""
        machine = Machine(6, default_recv_timeout=5)
        am_util.load_all(machine)
        install_recovery(machine)
        arr = make_array(machine, replication=1)
        ref = np.arange(64, dtype=float).reshape(8, 8)
        arr.from_numpy(ref)

        # VP 4 receives exactly one message in this plan: the adopt.
        plan = FaultPlan(seed=11, kills=(KillSpec(4, after=1, on="recv"),))
        with FaultyTransport(machine, plan) as ft:
            moved, status = am_user.migrate_sections(
                machine, arr.array_id, {2: 4}
            )

        assert ft.stats.killed == [4]
        assert status is Status.ERROR and moved is None
        state = durability(machine, arr)
        assert state.processors == (0, 1, 2, 3)
        assert np.array_equal(arr.to_numpy(), ref)
        log = get_array_manager(machine).migrations[-1]
        assert not log["ok"] and "error" in log
        # A retry onto the surviving spare lands the move.
        assert arr.migrate({2: 5}) == [2]
        assert np.array_equal(arr.to_numpy(), ref)

    def test_source_killed_mid_migration_recovers(self):
        """The *source* dies while yielding its section: reentrant
        recovery adopts the section onto a spare; the abandoned plan is
        refused as stale and the data survives through the replica."""
        machine = Machine(6, default_recv_timeout=5)
        am_util.load_all(machine)
        install_recovery(machine)
        arr = make_array(machine, replication=1)
        ref = np.arange(64, dtype=float).reshape(8, 8)
        arr.from_numpy(ref)

        # VP 2's next received message is the yield request itself.
        plan = FaultPlan(seed=13, kills=(KillSpec(2, after=1, on="recv"),))
        with FaultyTransport(machine, plan) as ft:
            _moved, status = am_user.migrate_sections(
                machine, arr.array_id, {2: 4}
            )

        assert ft.stats.killed == [2]
        assert status is Status.ERROR
        state = durability(machine, arr)
        assert 2 not in state.processors  # recovery rehomed the section
        assert state.sections_rebuilt == 1
        assert np.array_equal(arr.to_numpy(), ref)
        assert (
            am_user.verify_array(machine, arr.array_id, 2, [0, 0, 0, 0], "row")
            is Status.OK
        )


# -- planned migration under message faults -----------------------------------


class TestFaultyMigration:
    @pytest.mark.parametrize("seed", range(5))
    def test_drop_and_duplicate_never_corrupt_a_migration(self, seed):
        """Dropped or duplicated migrate traffic may fail an attempt —
        the attempt rolls back — but a bounded retry always lands the
        move, and the contents stay bit-identical throughout."""
        machine = Machine(6, default_recv_timeout=0.5)
        am_util.load_all(machine)
        install_recovery(machine)
        arr = make_array(machine, replication=1)
        ref = np.arange(64, dtype=float).reshape(8, 8)
        arr.from_numpy(ref)

        plan = FaultPlan(seed=seed, drop=0.1, duplicate=0.2)
        attempts = 0
        with FaultyTransport(machine, plan):
            for attempts in range(1, MAX_MIGRATE_ATTEMPTS + 1):
                try:
                    moved, status = am_user.migrate_sections(
                        machine, arr.array_id, {2: 4}
                    )
                except TimeoutError:
                    continue
                if status is Status.OK:
                    break
            else:
                pytest.fail("migration never committed")

        # Every failed attempt rolled back rather than half-committing.
        assert get_array_manager(machine).mover.aborts == attempts - 1

        assert moved == [2]
        state = durability(machine, arr)
        assert state.processors == (0, 1, 4, 3)
        assert np.array_equal(arr.to_numpy(), ref)
        assert (
            am_user.verify_array(machine, arr.array_id, 2, [0, 0, 0, 0], "row")
            is Status.OK
        )
