"""Recovery-coordinator tests: replica-first section rebuild onto a spare
VP, checkpoint-fallback recovery for unreplicated arrays, idempotent
installation, and torn-write rollback under supervised retry."""

import threading

import numpy as np
import pytest

from repro.arrays import am_user, am_util
from repro.arrays.manager import get_array_manager
from repro.arrays.redistribute import blocks
from repro.calls import Index, Local, StatusVar
from repro.core.darray import DistributedArray
from repro.faults import (
    FaultPlan,
    FaultyTransport,
    KillSpec,
    RetryPolicy,
    install_recovery,
    supervised_call,
)
from repro.status import ProcessorFailedError, SectionLostError, Status
from repro.vp.machine import Machine

DISTRIB_2X2 = (("block", 2), ("block", 2))


@pytest.fixture
def machine():
    m = Machine(6, default_recv_timeout=10)
    am_util.load_all(m)
    return m


def make_array(machine, replication, dims=(8, 8), procs=(0, 1, 2, 3)):
    return DistributedArray.create(
        machine, "double", dims, list(procs), DISTRIB_2X2,
        replication=replication,
    )


def durability(machine, arr):
    return get_array_manager(machine).durability_state(arr.array_id)


def section_ops(machine, arr, section, queued=True):
    """One call apiece of every element, region and local-block op,
    each touching ``section`` only.  ``queued=False`` makes the element
    write a one-cell region write, which answers from the holder."""
    layout = arr.layout
    region = [
        (start, stop)
        for ((_, start, stop, _),) in blocks(layout, section=section).axes
    ]
    corner = tuple(lo for lo, _ in region)
    block = np.full(layout.local_dims, 2.0)
    owner = durability(machine, arr).processors[section]
    aid = arr.array_id
    return {
        "read_element": lambda: am_user.read_element(machine, aid, corner),
        "write_element": (
            (lambda: am_user.write_element(machine, aid, corner, 2.0))
            if queued
            else lambda: am_user.write_region(
                machine, aid, [(lo, lo + 1) for lo in corner], np.array([[2.0]])
            )
        ),
        "read_region": lambda: am_user.read_region(machine, aid, region),
        "write_region": lambda: am_user.write_region(
            machine, aid, region, block
        ),
        "write_region_targeted": lambda: am_user.write_region_targeted(
            machine, aid, region, block
        ),
        "get_local_block": lambda: am_user.get_local_block(
            machine, aid, owner
        ),
    }


# -- replica-based recovery ---------------------------------------------------


class TestReplicaRecovery:
    def test_fail_rebuilds_section_from_replica(self, machine):
        coordinator = install_recovery(machine)
        arr = make_array(machine, replication=1)
        ref = np.arange(64, dtype=float).reshape(8, 8)
        arr.from_numpy(ref)

        machine.fail(2)

        state = durability(machine, arr)
        assert 2 not in state.processors
        assert state.processors == (0, 1, 4, 3)  # spare VP 4 adopted it
        assert state.sections_rebuilt == 1
        assert state.epoch == 1
        # recovered contents are bit-identical to the pre-failure array
        assert np.array_equal(arr.to_numpy(), ref)
        assert (
            am_user.verify_array(machine, arr.array_id, 2, [0, 0, 0, 0], "row")
            is Status.OK
        )
        event = coordinator.recoveries[-1]
        assert event["ok"] and event["spare"] == 4 and event["dead"] == 2

    def test_rebuilt_section_has_the_verified_borders(self, machine):
        """verify_array answered OK, so every section has the borders it
        asked for (§4.2.7) — the one recovery rebuilds too, since it is
        made to the layout verify_array committed."""
        install_recovery(machine)
        arr = make_array(machine, replication=1)
        ref = np.arange(64, dtype=float).reshape(8, 8)
        arr.from_numpy(ref)
        aid = arr.array_id
        assert am_user.verify_array(machine, aid, 2, [1, 1, 1, 1], "row") is (
            Status.OK
        )
        machine.fail(2)
        assert durability(machine, arr).processors == (0, 1, 4, 3)
        section, status = am_user.find_local(machine, aid, 4)
        assert status is Status.OK
        assert section.borders == (1, 1, 1, 1)
        assert section.full().shape == (6, 6)
        for vp in (0, 1, 3, 4):
            assert am_user.find_info(machine, aid, "borders", vp) == (
                [1, 1, 1, 1], Status.OK
            )
        assert np.array_equal(arr.to_numpy(), ref)

    def test_survivors_learn_new_membership(self, machine):
        install_recovery(machine)
        arr = make_array(machine, replication=1)
        arr.from_numpy(np.ones((8, 8)))
        machine.fail(1)
        # a survivor can still locate every element through its rewritten
        # membership (reads route to the adopting spare, not the corpse)
        value, status = am_user.read_element(
            machine, arr.array_id, (0, 7), processor=3
        )
        assert status is Status.OK and value == 1.0

    def test_spare_killed_by_its_adopt_is_passed_over(self, machine):
        """The spare dies on the adopt itself, before it is a member, so
        no recovery would ever move the section off it: the rebuild
        takes the next spare instead of committing onto a corpse."""
        install_recovery(machine)
        arr = make_array(machine, replication=1)
        ref = np.arange(64, dtype=float).reshape(8, 8)
        arr.from_numpy(ref)
        # VP 4 holds nothing: the first message it receives is the adopt.
        plan = FaultPlan(seed=0, kills=(KillSpec(4, after=1, on="recv"),))
        with FaultyTransport(machine, plan) as ft:
            machine.fail(2)
        assert ft.stats.killed == [4]
        state = durability(machine, arr)
        assert state.processors == (0, 1, 5, 3)
        assert np.array_equal(arr.to_numpy(), ref)

    def test_replicas_reseeded_after_recovery(self, machine):
        install_recovery(machine)
        arr = make_array(machine, replication=1)
        arr.from_numpy(np.ones((8, 8)))
        machine.fail(2)
        # the rebuilt membership tolerates a second, later failure
        machine.fail(1)
        state = durability(machine, arr)
        assert set(state.processors).isdisjoint({1, 2})
        assert state.sections_rebuilt == 2
        assert np.array_equal(arr.to_numpy(), np.ones((8, 8)))


# -- checkpoint-based recovery (replication=0) --------------------------------


class TestCheckpointRecovery:
    def test_unreplicated_array_recovers_from_checkpoint(self, machine):
        install_recovery(machine)
        arr = make_array(machine, replication=0)
        ref = np.arange(64, dtype=float).reshape(8, 8)
        arr.from_numpy(ref)
        arr.checkpoint()
        # A row committed into section 3 after the checkpoint: with no
        # mirror to carry it, it dies with its owner.
        delta = np.full((1, 4), -1.0)
        region = [(7, 8), (4, 8)]
        assert am_user.write_region(
            machine, arr.array_id, region, delta
        ) is Status.OK

        machine.fail(3)

        state = durability(machine, arr)
        assert state.processors == (0, 1, 2, 4)
        assert np.array_equal(arr.to_numpy(), ref)
        # The workload's to replay, a message a row — where a planned
        # move would have carried the row with the section — and the
        # rebuilt section takes it.
        machine.reset_traffic()
        assert am_user.write_region(
            machine, arr.array_id, region, delta
        ) is Status.OK
        assert machine.traffic_snapshot()["messages"] == 1
        ref[7:8, 4:8] = delta
        assert np.array_equal(arr.to_numpy(), ref)

    def test_unreplicated_array_without_checkpoint_is_unrecoverable(
        self, machine
    ):
        coordinator = install_recovery(machine)
        arr = make_array(machine, replication=0)
        arr.from_numpy(np.ones((8, 8)))
        machine.fail(3)
        state = durability(machine, arr)
        # Recorded as lost, with its cause — not silently dropped.
        assert list(state.lost) == [3]
        assert "owner 3 failed" in state.lost[3]
        diag = machine.diagnostics()["arrays"][str(arr.array_id.as_tuple())]
        assert diag["lost"] == state.lost
        assert state.sections_rebuilt == 0
        assert not coordinator.recoveries[-1]["ok"]

    @pytest.mark.parametrize("queued", [True, False])
    def test_every_op_on_a_lost_section_fails_at_once(self, machine, queued):
        """Each op that needs the lost section raises SectionLostError at
        its first call — no bounce to retry — and the same ops on a
        surviving section answer OK.  The element write is the queued one
        or, unqueued, its synchronous form: a one-cell region write."""
        install_recovery(machine)
        arr = make_array(machine, replication=0)
        arr.from_numpy(np.ones((8, 8)))
        machine.fail(3)
        for name, op in section_ops(machine, arr, 3, queued).items():
            with pytest.raises(SectionLostError) as caught:
                op()
            assert caught.value.section == 3, name
            assert caught.value.status is Status.ERROR
        with pytest.raises(SectionLostError):
            arr.to_numpy()
        for name, op in section_ops(machine, arr, 0, queued).items():
            result = op()
            status = result[1] if isinstance(result, tuple) else result
            assert status is Status.OK, name

    def test_rebalance_leaves_a_lost_section_where_it_is(self, machine):
        """A respread moves the sections it can and leaves the lost one
        on its dead owner: nothing to source, nothing to plan."""
        install_recovery(machine)
        arr = make_array(machine, replication=0)
        arr.from_numpy(np.ones((8, 8)))
        machine.fail(3)
        state = durability(machine, arr)
        lost = dict(state.lost)
        assert list(lost) == [3]
        moved, status = am_user.rebalance_array(
            machine, arr.array_id, targets=[0, 2, 4, 5]
        )
        assert status is Status.OK
        assert moved == [1]
        assert state.processors[1] in (4, 5)
        assert state.lost == lost
        with pytest.raises(SectionLostError):
            am_user.read_element(machine, arr.array_id, (4, 4))


# -- degenerate topologies ----------------------------------------------------


class TestNoSpare:
    def test_no_spare_processor_is_recorded_not_raised(self):
        m = Machine(4, default_recv_timeout=10)
        am_util.load_all(m)
        coordinator = install_recovery(m)
        arr = make_array(m, replication=1)
        arr.from_numpy(np.ones((8, 8)))
        m.fail(2)  # every VP already hosts a section: nowhere to rebuild
        state = durability(m, arr)
        assert state.lost == {}  # pending until a spare appears
        assert state.sections_rebuilt == 0
        event = coordinator.recoveries[-1]
        assert not event["ok"] and event["error"] == "no spare processor"


# -- idempotent installation --------------------------------------------------


class TestIdempotentInstall:
    def test_install_recovery_returns_same_coordinator(self, machine):
        assert install_recovery(machine) is install_recovery(machine)

    def test_double_install_does_not_double_rebuild(self, machine):
        c = install_recovery(machine)
        c.install()  # explicit second install of the same coordinator
        install_recovery(machine)  # and a third via the helper
        arr = make_array(machine, replication=1)
        arr.from_numpy(np.ones((8, 8)))
        machine.fail(2)
        state = durability(machine, arr)
        assert state.sections_rebuilt == 1  # exactly the one lost section
        assert sum(1 for e in c.recoveries if e["ok"]) == 1

    def test_two_distinct_coordinators_still_rebuild_once(self, machine):
        from repro.faults import RecoveryCoordinator

        a = RecoveryCoordinator(machine).install()
        b = RecoveryCoordinator(machine).install()
        arr = make_array(machine, replication=1)
        arr.from_numpy(np.ones((8, 8)))
        machine.fail(2)
        state = durability(machine, arr)
        assert state.sections_rebuilt == 1
        rebuilt = [
            e for c in (a, b) for e in c.recoveries if e.get("sections")
        ]
        assert len(rebuilt) == 1

    def test_double_fail_notifies_listeners_once(self, machine):
        seen = []
        machine.add_failure_listener(seen.append)
        machine.fail(5)
        machine.fail(5)
        assert seen == [5]

    def test_uninstall_stops_recovery(self, machine):
        coordinator = install_recovery(machine)
        coordinator.uninstall()
        arr = make_array(machine, replication=1)
        arr.from_numpy(np.ones((8, 8)))
        machine.fail(2)
        assert durability(machine, arr).sections_rebuilt == 0


# -- scripted kills -----------------------------------------------------------


class TestScriptedKill:
    def test_kill_during_writes_yields_bit_identical_array(self, machine):
        """A scripted FaultPlan kill mid-write-stream: after recovery the
        array matches the fault-free run bit for bit (acceptance check)."""
        install_recovery(machine)
        arr = make_array(machine, replication=1)
        ref = np.zeros((8, 8))
        arr.from_numpy(ref)

        plan = FaultPlan(seed=7, kills=(KillSpec(2, after=3, on="recv"),))
        expected = np.zeros((8, 8))
        with FaultyTransport(machine, plan) as ft:
            for i in range(8):
                row = np.full((1, 8), float(i + 1))
                expected[i : i + 1, :] = row
                for _ in range(4):  # bounded retry per write
                    try:
                        status = am_user.write_region(
                            machine, arr.array_id, [(i, i + 1), (0, 8)], row
                        )
                    except (ProcessorFailedError, TimeoutError):
                        continue
                    if status is Status.OK:
                        break
                else:
                    pytest.fail(f"row {i} never committed")
        assert ft.stats.killed == [2]
        state = durability(machine, arr)
        assert 2 not in state.processors
        assert np.array_equal(arr.to_numpy(), expected)
        assert (
            am_user.verify_array(machine, arr.array_id, 2, [0, 0, 0, 0], "row")
            is Status.OK
        )


# -- supervised retry with restore_arrays -------------------------------------


class TestSupervisedRestore:
    def test_retry_rolls_back_torn_writes(self, machine):
        """A non-idempotent increment program whose first attempt fails
        *after* mutating the array: with ``restore_arrays`` the retry
        starts from the pre-attempt checkpoint, so the final array shows
        exactly one increment — never the torn two."""
        arr = make_array(machine, replication=0)
        ref = np.arange(64, dtype=float).reshape(8, 8)
        arr.from_numpy(ref)

        first_attempt = [True]
        lock = threading.Lock()

        def bump(ctx, processors, num, index, local, status):
            local.interior()[:] += 1.0  # side effect lands before failure
            status.set(int(Status.OK))
            if index == 0:
                with lock:
                    fail_now, first_attempt[0] = first_attempt[0], False
                if fail_now:
                    status.set(int(Status.ERROR))

        result = supervised_call(
            machine,
            [0, 1, 2, 3],
            bump,
            [[0, 1, 2, 3], 4, Index(), Local(arr.array_id), StatusVar()],
            RetryPolicy(max_attempts=3, base_delay=0.001),
            restore_arrays=[arr],
        )
        assert result.status is Status.OK
        assert len(result.attempts) == 2
        assert np.array_equal(arr.to_numpy(), ref + 1.0)

    def test_without_restore_the_tear_is_visible(self, machine):
        """Negative control for the rollback test: the same failing
        program without ``restore_arrays`` double-applies the increment."""
        arr = make_array(machine, replication=0)
        ref = np.arange(64, dtype=float).reshape(8, 8)
        arr.from_numpy(ref)

        first_attempt = [True]
        lock = threading.Lock()

        def bump(ctx, processors, num, index, local, status):
            local.interior()[:] += 1.0
            status.set(int(Status.OK))
            if index == 0:
                with lock:
                    fail_now, first_attempt[0] = first_attempt[0], False
                if fail_now:
                    status.set(int(Status.ERROR))

        result = supervised_call(
            machine,
            [0, 1, 2, 3],
            bump,
            [[0, 1, 2, 3], 4, Index(), Local(arr.array_id), StatusVar()],
            RetryPolicy(max_attempts=3, base_delay=0.001),
        )
        assert result.status is Status.OK
        assert np.array_equal(arr.to_numpy(), ref + 2.0)

    def test_restore_arrays_requires_retry(self, machine):
        from repro.calls import distributed_call

        arr = make_array(machine, replication=0)

        def noop(ctx, procs_):
            pass

        with pytest.raises(ValueError, match="restore_arrays"):
            distributed_call(
                machine, [0, 1, 2, 3], noop, [[0, 1, 2, 3]],
                restore_arrays=[arr],
            )
