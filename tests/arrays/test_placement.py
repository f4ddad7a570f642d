"""The section-placement engine: plans, the mover, and elastic membership.

Planned migration and failure recovery share exactly one code path that
moves a section (``SectionMover.execute_locked``); these tests exercise
the plan builders, the transactional move (commit, stale-plan refusal,
rollback on mid-plan failure), the migration barrier's interplay with
the perf layer (coalesced writes flushed before the section leaves),
and runtime membership growth.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.arrays import am_user, am_util
from repro.arrays.durability import replica_store_for
from repro.arrays.manager import _records, get_array_manager
from repro.arrays.placement import (
    MigrationError,
    PlacementPlan,
    SectionMove,
)
from repro.core.darray import DistributedArray
from repro.faults import FaultPlan, FaultyTransport, KillSpec, install_recovery
from repro.faults.plan import FaultDecision
from repro.pcn.defvar import DefVar
from repro.perf import ARRAY_BATCH_KIND, get_perf_layer
from repro.status import Status
from repro.vp.clock import ManualClock
from repro.vp.fabric import TraceInterceptor
from repro.vp.machine import Machine

DISTRIB_2X2 = (("block", 2), ("block", 2))


@pytest.fixture
def machine():
    m = Machine(6, default_recv_timeout=10)
    am_util.load_all(m)
    return m


def make_array(machine, replication=0, procs=(0, 1, 2, 3)):
    return DistributedArray.create(
        machine, "double", (8, 8), list(procs), DISTRIB_2X2,
        replication=replication,
    )


def durability(machine, arr):
    return get_array_manager(machine).durability_state(arr.array_id)


class DropRoutedRewrites(FaultPlan):
    """Drop every membership rewrite that crosses the wire.  The strict
    publish of a move stops at the first one lost — after its destination,
    alive, has adopted; a rollback's rewrites run in place on their
    targets and never meet the plan."""

    def decide(self, message, channel_ordinal):
        request = getattr(message.payload, "request_type", None)
        return FaultDecision(drop=request == "update_membership_local")


class DelayFirst(FaultPlan):
    """Hold back the first message of envelope kind or request type
    ``what`` until the clock passes ``delay_seconds``; pass the rest."""

    def __init__(self, what):
        super().__init__()
        object.__setattr__(self, "what", what)
        object.__setattr__(self, "held", [])

    def decide(self, message, channel_ordinal):
        request = getattr(message.payload, "request_type", None)
        if self.held or self.what not in (message.kind, request):
            return FaultDecision()
        self.held.append(message)
        return FaultDecision(delay=True)


def manual_machine():
    """A machine whose delayed messages arrive when the test says so."""
    clock = ManualClock()
    m = Machine(6, clock=clock, default_recv_timeout=10)
    am_util.load_all(m)
    return m, clock


def wait_for(predicate, seconds=10.0):
    deadline = time.monotonic() + seconds
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


def move_section_2_away_and_section_1_onto_its_owner(arr):
    """Section 2 leaves processor 2, which forgets the array; section 1
    moves onto it, so processor 2 now holds section 1."""
    arr.migrate({2: 4})
    arr.migrate({1: 2})
    assert arr.processors == (0, 2, 4, 3)


def holds_anything(machine, array_id, processor):
    """Does ``processor`` keep a record or a mirror of the array?"""
    node = machine.processor(processor)
    return array_id in _records(node) or bool(
        replica_store_for(node).sections_for(array_id)
    )


# -- plan builders ------------------------------------------------------------


class TestPlanBuilders:
    def test_for_failure_moves_every_section_of_the_dead(self, machine):
        arr = make_array(machine, replication=1)
        state = durability(machine, arr)
        plan = PlacementPlan.for_failure(state, dead=2, spare=4)
        assert plan.reason == "recovery"
        assert plan.base_processors == (0, 1, 2, 3)
        assert plan.new_processors == (0, 1, 4, 3)
        assert plan.moves == (SectionMove(2, 2, 4),)
        assert plan.new_replica_map is not None

    def test_from_assignments_skips_satisfied_assignments(self, machine):
        arr = make_array(machine)
        state = durability(machine, arr)
        # Every section already on its requested owner: nothing to do.
        assert PlacementPlan.from_assignments(state, {0: 0, 3: 3}) is None

    def test_from_assignments_rejects_unknown_section(self, machine):
        arr = make_array(machine)
        state = durability(machine, arr)
        with pytest.raises(MigrationError, match="no section 9"):
            PlacementPlan.from_assignments(state, {9: 4})

    def test_from_assignments_rejects_occupied_destination(self, machine):
        arr = make_array(machine)
        state = durability(machine, arr)
        with pytest.raises(MigrationError, match="already holds a section"):
            PlacementPlan.from_assignments(state, {0: 1})

    def test_from_assignments_rejects_duplicate_destination(self, machine):
        arr = make_array(machine)
        state = durability(machine, arr)
        with pytest.raises(MigrationError, match="two sections"):
            PlacementPlan.from_assignments(state, {0: 4, 1: 4})

    def test_rebalance_is_none_when_already_placed(self, machine):
        arr = make_array(machine)
        state = durability(machine, arr)
        assert PlacementPlan.rebalance(state, machine) is None

    def test_rebalance_repairs_dead_owner(self, machine):
        arr = make_array(machine, replication=1)
        state = durability(machine, arr)
        machine.fail(1)
        plan = PlacementPlan.rebalance(state, machine)
        assert plan.moves == (SectionMove(1, 1, 4),)
        assert plan.new_processors == (0, 4, 2, 3)

    def test_rebalance_respects_explicit_targets(self, machine):
        arr = make_array(machine)
        state = durability(machine, arr)
        # Owner 3 is outside the target set: its section must move to a
        # spare target (4 or 5).
        plan = PlacementPlan.rebalance(state, machine, targets=[0, 1, 2, 4, 5])
        assert [m.section for m in plan.moves] == [3]
        assert plan.moves[0].dest in (4, 5)

    def test_rebalance_raises_when_no_spare(self):
        m = Machine(4, default_recv_timeout=10)
        am_util.load_all(m)
        arr = make_array(m, replication=1)
        state = durability(m, arr)
        m.fail(2)
        with pytest.raises(MigrationError, match="no spare processor"):
            PlacementPlan.rebalance(state, m)


# -- planned migration end to end ---------------------------------------------


class TestPlannedMigration:
    def test_migrate_preserves_contents_and_rewrites_membership(self, machine):
        arr = make_array(machine, replication=1)
        ref = np.arange(64, dtype=float).reshape(8, 8)
        arr.from_numpy(ref)

        moved = arr.migrate({2: 4})

        assert moved == [2]
        assert arr.processors == (0, 1, 4, 3)
        state = durability(machine, arr)
        assert state.processors == (0, 1, 4, 3)
        assert state.sections_migrated == 1
        assert state.sections_rebuilt == 0
        assert state.epoch == 1
        assert np.array_equal(arr.to_numpy(), ref)
        assert (
            am_user.verify_array(machine, arr.array_id, 2, [0, 0, 0, 0], "row")
            is Status.OK
        )

    def test_moved_section_has_the_verified_borders(self, machine):
        """A section moved after verify_array is made to the layout
        verify_array committed, not the creation-time one (§4.2.7)."""
        arr = make_array(machine, replication=1)
        ref = np.arange(64, dtype=float).reshape(8, 8)
        arr.from_numpy(ref)
        aid = arr.array_id
        assert am_user.verify_array(machine, aid, 2, [1, 1, 1, 1], "row") is (
            Status.OK
        )
        assert am_user.migrate_sections(machine, aid, {2: 4}) == (
            [2], Status.OK
        )
        section, status = am_user.find_local(machine, aid, 4)
        assert status is Status.OK
        assert section.borders == (1, 1, 1, 1)
        assert am_user.find_info(machine, aid, "borders", 4) == (
            [1, 1, 1, 1], Status.OK
        )
        assert np.array_equal(arr.to_numpy(), ref)

    def test_old_owner_no_longer_holds_a_section(self, machine):
        arr = make_array(machine)
        arr.from_numpy(np.ones((8, 8)))
        arr.migrate({2: 4})
        _section, status = am_user.find_local(machine, arr.array_id, 2)
        assert status is Status.NOT_FOUND

    def test_survivors_route_through_new_membership(self, machine):
        arr = make_array(machine)
        arr.from_numpy(np.full((8, 8), 3.0))
        arr.migrate({3: 5})
        value, status = am_user.read_element(
            machine, arr.array_id, (7, 7), processor=1
        )
        assert status is Status.OK and value == 3.0

    def test_migrated_array_still_recovers_from_failure(self, machine):
        install_recovery(machine)
        arr = make_array(machine, replication=1)
        ref = np.arange(64, dtype=float).reshape(8, 8)
        arr.from_numpy(ref)
        arr.migrate({0: 4})
        machine.fail(4)  # kill the adopted owner: replicas must cover it
        state = durability(machine, arr)
        assert 4 not in state.processors
        assert state.sections_rebuilt == 1
        assert np.array_equal(arr.to_numpy(), ref)

    def test_writes_after_migration_land_on_new_owner(self, machine):
        arr = make_array(machine)
        arr.from_numpy(np.zeros((8, 8)))
        arr.migrate({1: 4})
        arr[0, 7] = 9.0  # section 1's corner
        block_origin, block = arr.local_block(4)
        assert block_origin == (0, 4)
        assert block[0, 3] == 9.0

    def test_migration_is_an_error_for_unknown_array(self, machine):
        from repro.arrays.record import ArrayID

        get_array_manager(machine)
        bogus = ArrayID(creating_processor=0, serial=999)
        _moved, status = am_user.migrate_sections(machine, bogus, {0: 4})
        assert status is Status.NOT_FOUND

    def test_invalid_assignment_is_invalid_not_crash(self, machine):
        arr = make_array(machine)
        _moved, status = am_user.migrate_sections(
            machine, arr.array_id, {0: 1}
        )
        assert status is Status.INVALID

    def test_a_late_batch_is_applied_only_by_its_section_holder(self):
        """A write-behind batch for section 2 that reaches processor 2
        after section 2 left it and section 1 arrived is refused there by
        the holder check, and re-sent to section 2's owner: it never
        lands in section 1."""
        machine, clock = manual_machine()
        arr = make_array(machine)
        coalescer = get_perf_layer(machine).coalescer
        with FaultyTransport(machine, DelayFirst(ARRAY_BATCH_KIND)) as ft:
            arr[4, 0] = 1.0  # queued for section 2, owned by processor 2
            flusher = threading.Thread(
                target=coalescer.flush, args=(arr.array_id, 2)
            )
            flusher.start()
            wait_for(lambda: ft.stats.delayed == 1)
            move_section_2_away_and_section_1_onto_its_owner(arr)
            clock.advance(1.0)
            flusher.join(timeout=10)
            assert not flusher.is_alive()
        assert arr[4, 0] == 1.0
        assert arr[0, 4] == 0.0  # section 1, which nobody wrote
        assert (coalescer.flushes, coalescer.lost_batches) == (1, 0)
        assert coalescer.retries == 1

    def test_a_commit_whose_section_left_after_the_check_is_refused(
        self, machine
    ):
        """The holder check is made again under the record lock: a write
        whose section was yielded to a migration between the request's
        check and its commit answers NOT_FOUND and writes nothing."""
        arr = make_array(machine)
        manager = get_array_manager(machine)
        node = machine.processor(2)
        record = manager._resolve(node, arr.array_id, None, section=2)
        assert record is not None
        data, yielded = DefVar(), DefVar()
        manager.yield_section_local(
            node, arr.array_id, record.epoch, data, yielded
        )
        assert yielded.read() is Status.OK
        status = DefVar()
        assert manager._commit(node, record, [((0, 0), 5.0)], status) == (
            "not_found"
        )
        assert status.read() is Status.NOT_FOUND

    def test_a_late_region_share_is_applied_only_by_its_section_holder(self):
        """A region write's share for section 2 that reaches processor 2
        after section 2 left it and section 1 arrived is refused there:
        the write answers ERROR and section 1 is untouched.  A retry lands
        in section 2."""
        machine, clock = manual_machine()
        arr = make_array(machine)
        region, data = [(4, 6), (0, 4)], np.full((2, 4), 7.0)  # section 2
        answers = []

        def write_on_1():
            answers.append(am_user.write_region(
                machine, arr.array_id, region, data, processor=1
            ))

        plan = DelayFirst("write_region_local")
        with FaultyTransport(machine, plan) as ft:
            writer = threading.Thread(target=write_on_1)
            writer.start()
            wait_for(lambda: ft.stats.delayed == 1)
            move_section_2_away_and_section_1_onto_its_owner(arr)
            clock.advance(1.0)
            writer.join(timeout=10)
            assert not writer.is_alive()
        assert answers == [Status.ERROR]
        assert np.array_equal(arr.to_numpy(), np.zeros((8, 8)))
        # Processor 1 gave section 1 away and forgot the array: the
        # retry is made on processor 0, which created it.
        assert am_user.write_region(
            machine, arr.array_id, region, data, processor=0
        ) is Status.OK
        expected = np.zeros((8, 8))
        expected[4:6, 0:4] = 7.0
        assert np.array_equal(arr.to_numpy(), expected)


# -- transactional failure handling -------------------------------------------


class TestMoveTransactionality:
    def test_stale_plan_is_refused(self, machine):
        arr = make_array(machine)
        arr.from_numpy(np.ones((8, 8)))
        state = durability(machine, arr)
        stale = PlacementPlan.from_assignments(state, {2: 4})
        arr.migrate({2: 5})  # membership moves on before the plan runs
        _moved, status = am_user.migrate_sections(
            machine, arr.array_id, stale
        )
        assert status is Status.ERROR
        log = get_array_manager(machine).migrations[-1]
        assert "stale plan" in log["error"]
        # The refused plan changed nothing.
        assert durability(machine, arr).processors == (0, 1, 5, 3)
        assert np.array_equal(arr.to_numpy(), np.ones((8, 8)))

    def test_dead_destination_rolls_back_and_preserves_contents(
        self, machine
    ):
        arr = make_array(machine, replication=1)
        ref = np.arange(64, dtype=float).reshape(8, 8)
        arr.from_numpy(ref)
        machine.fail(4)  # the destination is already a corpse

        _moved, status = am_user.migrate_sections(
            machine, arr.array_id, {2: 4}
        )

        assert status is Status.ERROR
        state = durability(machine, arr)
        # Rollback restored the yielded section onto its original owner
        # under a fresh epoch (stragglers from the abandoned attempt are
        # refused by the epoch guard).
        assert state.processors == (0, 1, 2, 3)
        assert state.epoch >= 2
        assert state.sections_migrated == 0
        assert np.array_equal(arr.to_numpy(), ref)
        mover = get_array_manager(machine).mover
        assert mover.aborts == 1

    def test_rolled_back_array_accepts_further_writes(self, machine):
        arr = make_array(machine, replication=1)
        arr.from_numpy(np.zeros((8, 8)))
        machine.fail(5)
        _moved, status = am_user.migrate_sections(
            machine, arr.array_id, {1: 5}
        )
        assert status is Status.ERROR
        arr.from_numpy(np.full((8, 8), 2.0))
        assert np.array_equal(arr.to_numpy(), np.full((8, 8), 2.0))
        assert (
            am_user.verify_array(machine, arr.array_id, 2, [0, 0, 0, 0], "row")
            is Status.OK
        )

    def test_rollback_spares_what_nested_recovery_installed(self, machine):
        """Fuzz seed 108, scripted.  The move of section 2 onto spare 4
        has yielded and adopted when its first membership rewrite reaches
        processor 1 — that processor's first receive — and kills it.
        Recovery runs nested inside the move (same thread, same state
        lock), finds processor 4 still outside the committed membership
        and installs section 1 there.  The move then meets a membership
        that changed under it and rolls back: it must put section 2 back
        on processor 2 and leave processor 4 what recovery gave it.  When
        the move and the recovery both computed "entry epoch + 1", the
        rollback's retraction at processor 4, fenced by that number, freed
        recovery's section: an owner without storage, and rows answering
        ``status=99``."""
        coordinator = install_recovery(machine)
        arr = make_array(machine, replication=1)
        ref = np.arange(64, dtype=float).reshape(8, 8)
        arr.from_numpy(ref)
        state = durability(machine, arr)
        kill = FaultPlan(kills=(KillSpec(1, after=1, on="recv"),))
        with FaultyTransport(machine, kill) as ft:
            _moved, status = am_user.migrate_sections(
                machine, arr.array_id, {2: 4}
            )

        assert status is Status.ERROR
        assert ft.stats.killed == [1]
        assert get_array_manager(machine).mover.aborts == 1
        assert state.processors == (0, 4, 2, 3)
        record = _records(machine.processor(4))[arr.array_id]
        assert record.section is not None
        assert record.section_number_for(4) == 1
        for row in range(8):
            data, row_status = am_user.read_region(
                machine, arr.array_id, [(row, row + 1), (0, 8)]
            )
            assert row_status is Status.OK
            assert np.array_equal(data, ref[row:row + 1])
        assert np.array_equal(arr.to_numpy(), ref)
        # The move, the recovery nested in it, the rollback: three numbers.
        # The move's is the one its rewrite left on processor 1, whose
        # record nothing has reached since.
        move_epoch = _records(machine.processor(1))[arr.array_id].epoch
        recovery_epoch = coordinator.recoveries[-1]["epoch"]
        assert 0 < move_epoch < recovery_epoch < state.epoch

    def test_rolled_back_destination_forgets_the_array(self):
        """A destination that adopted and then saw the move rolled back
        is left without a role, and ``free_array`` — which asks the
        membership and the creator — will never reach it: the rollback
        itself has it forget the array."""
        machine = Machine(6, default_recv_timeout=1)
        am_util.load_all(machine)
        arr = make_array(machine, replication=1)
        ref = np.arange(64, dtype=float).reshape(8, 8)
        arr.from_numpy(ref)

        with FaultyTransport(machine, DropRoutedRewrites()) as ft:
            _moved, status = am_user.migrate_sections(
                machine, arr.array_id, {2: 4}
            )

        assert status is Status.ERROR and ft.stats.dropped == 1
        assert durability(machine, arr).processors == (0, 1, 2, 3)
        assert np.array_equal(arr.to_numpy(), ref)
        assert not holds_anything(machine, arr.array_id, 4)
        arr.free()
        assert not any(
            holds_anything(machine, arr.array_id, p) for p in range(6)
        )
        assert get_perf_layer(machine).coalescer.pending_ops(arr.array_id) == 0


# -- what a move puts on the wire, and what it leaves behind ------------------


def wire(tracer):
    return [(s["kind"], s["source"], s["dest"]) for s in tracer.spans()]


class TestWire:
    """The ``(kind, source, dest)`` sequence of a move is pinned: scripted
    ``KillSpec(vp, after=n, on="recv")`` tests and every fuzz seed are
    keyed on it.  An array on ``(0, 1, 2, 3)`` with one backup a section
    (section ``s`` is mirrored by the next owner in the ring), moved from
    processor 0: requests processor 0 makes of itself are not messages."""

    @pytest.fixture
    def machine(self):
        m = Machine(8, default_recv_timeout=10)
        am_util.load_all(m)
        return m

    def test_migration_wire_is_pinned(self, machine):
        arr = make_array(machine, replication=1)
        with TraceInterceptor(machine) as tracer:
            moved, status = am_user.migrate_sections(
                machine, arr.array_id, {1: 6}, processor=0
            )
        assert (moved, status) == ([1], Status.OK)
        assert wire(tracer) == [
            ("migrate", 0, 1),  # yield
            ("migrate", 0, 6),  # adopt
            ("migrate", 0, 1),  # rewrite membership: 0 itself, 1, 2, 3
            ("migrate", 0, 2),
            ("migrate", 0, 3),
            ("replica_update", 0, 6),  # reseed: 0 itself, 6, 2, 3
            ("migrate", 0, 6),
            ("replica_update", 6, 2),
            ("migrate", 0, 2),
            ("replica_update", 2, 3),
            ("migrate", 0, 3),
            ("replica_update", 3, 0),
            ("migrate", 0, 1),  # after the commit: former owner 1 forgets
        ]

    def test_recovery_wire_is_pinned(self, machine):
        install_recovery(machine)
        make_array(machine, replication=1)
        with TraceInterceptor(machine) as tracer:
            machine.fail(1)
        # No trailing message: the former owner is the corpse.
        assert wire(tracer) == [
            ("recovery", 0, 2),  # fetch the mirror of section 1
            ("recovery", 0, 4),  # adopt
            ("recovery", 0, 2),  # rewrite membership: 0 itself, 2, 3
            ("recovery", 0, 3),
            ("replica_update", 0, 4),  # reseed: 0 itself, 4, 2, 3
            ("recovery", 0, 4),
            ("replica_update", 4, 2),
            ("recovery", 0, 2),
            ("replica_update", 2, 3),
            ("recovery", 0, 3),
            ("replica_update", 3, 0),
        ]

    def test_rollback_wire_is_pinned(self):
        """A rollback after a *live* destination has adopted.  The forward
        pass of ``{1: 6}`` routes the yield, the adopt, and — processor 0
        having rewritten its own record in place — the rewrite for
        processor 1, which is lost; the request times out and the move
        rolls back.  Every step of a rollback runs in place on its target
        (adopt on 1; rewrite on 0, 1, 2, 3 and 6; reseed on the four
        owners; free on 6), so the rollback routes nothing but the four
        owners' reseeded mirrors, which are data, not requests.  The move
        drew epoch entry + 1 and abandoned it; the rollback drew and
        committed entry + 2."""
        machine = Machine(8, default_recv_timeout=1)
        am_util.load_all(machine)
        arr = make_array(machine, replication=1)
        ref = np.arange(64, dtype=float).reshape(8, 8)
        arr.from_numpy(ref)
        state = durability(machine, arr)
        entry = state.epoch
        with FaultyTransport(machine, DropRoutedRewrites()) as ft:
            with TraceInterceptor(machine) as tracer:
                _moved, status = am_user.migrate_sections(
                    machine, arr.array_id, {1: 6}, processor=0
                )
        assert status is Status.ERROR and ft.stats.dropped == 1
        assert wire(tracer) == [
            ("migrate", 0, 1),  # yield
            ("migrate", 0, 6),  # adopt
            ("migrate", 0, 1),  # rewrite membership: 0 itself, 1 — lost
            ("replica_update", 0, 1),  # rollback: the reseed, and no request
            ("replica_update", 1, 2),
            ("replica_update", 2, 3),
            ("replica_update", 3, 0),
        ]
        assert state.processors == (0, 1, 2, 3)
        assert state.epoch == entry + 2
        assert np.array_equal(arr.to_numpy(), ref)
        _section, status = am_user.find_local(machine, arr.array_id, 6)
        assert status is Status.NOT_FOUND
        assert get_array_manager(machine).mover.aborts == 1

    def test_former_owner_keeps_its_mirrors_until_every_owner_reseeded(
        self, machine
    ):
        """The forgetting must not cost a section its last copy: with
        owner 2 dead and nothing recovering it, the mirror on processor 3
        is all there is of section 2, and moving 3's own section away
        must leave it there for the repair to find."""
        arr = make_array(machine, replication=1)
        ref = np.arange(64, dtype=float).reshape(8, 8)
        arr.from_numpy(ref)
        machine.fail(2)

        assert arr.migrate({3: 6}) == [3]

        former = machine.processor(3)
        assert replica_store_for(former).sections_for(arr.array_id) == [2]
        assert arr.rebalance() == [2]
        assert np.array_equal(arr.to_numpy(), ref)

    def test_committed_move_leaves_nothing_on_the_former_owner(self, machine):
        arr = make_array(machine, replication=1)
        arr.migrate({1: 6})
        former = machine.processor(1)
        assert arr.array_id not in _records(former)
        assert replica_store_for(former).sections_for(arr.array_id) == []
        # The creating processor is a former owner that keeps its record:
        # it must go on answering for the array (§5.1.4).
        arr.migrate({0: 7})
        assert arr.array_id in _records(machine.processor(0))
        assert arr.info("processors") == [7, 6, 2, 3]


# -- the migration barrier and the perf layer ---------------------------------


class TestPerfInterplay:
    def test_pending_coalesced_writes_flush_before_the_move(self, machine):
        arr = make_array(machine)
        arr.from_numpy(np.zeros((8, 8)))
        perf = get_perf_layer(machine)
        arr[7, 7] = 5.0  # rides the write-behind buffer toward owner 3
        assert perf.coalescer.pending_ops(arr.array_id) == 1

        arr.migrate({3: 4})

        # The barrier drained the queue; the write landed on the *old*
        # owner before the section left it, and travelled with it.
        assert perf.coalescer.pending_ops(arr.array_id) == 0
        assert arr[7, 7] == 5.0

    @pytest.mark.parametrize("move", ["migrate", "rebalance"])
    def test_no_flush_lock_is_taken_under_the_state_lock(
        self, machine, monkeypatch, move
    ):
        """The migration barrier flushes before the plan takes the state
        lock (the lock order: a queue's flush lock, then ``state.lock``,
        then ``record.lock``): a flush under the state lock can wait for
        a batch that is itself waiting for the state lock."""
        arr = make_array(machine)
        state = durability(machine, arr)
        coalescer = get_perf_layer(machine).coalescer
        flush_key = coalescer._flush_key
        under_state_lock = []

        def probing_flush_key(key, reason):
            # The state lock is reentrant: only another thread can tell
            # whether this one holds it.
            free = []

            def try_state_lock():
                if state.lock.acquire(blocking=False):
                    state.lock.release()
                    free.append(True)

            helper = threading.Thread(target=try_state_lock)
            helper.start()
            helper.join(timeout=10)
            assert not helper.is_alive()
            under_state_lock.append(not free)
            return flush_key(key, reason)

        monkeypatch.setattr(coalescer, "_flush_key", probing_flush_key)
        arr[7, 7] = 5.0  # queued for section 3, owned by processor 3
        if move == "migrate":
            assert arr.migrate({3: 4}) == [3]
        else:
            assert arr.rebalance([0, 1, 2, 4]) == [3]
        assert under_state_lock and not any(under_state_lock)
        assert arr[7, 7] == 5.0


# -- diagnostics --------------------------------------------------------------


class TestPlacementDiagnostics:
    def test_placement_map_updates_after_migration(self, machine):
        arr = make_array(machine, replication=1)
        arr.from_numpy(np.ones((8, 8)))
        before = durability(machine, arr).diagnostics()["placement"]
        assert before[2]["owner"] == 2

        arr.migrate({2: 4})

        after = durability(machine, arr).diagnostics()["placement"]
        assert after[2]["owner"] == 4
        assert 4 not in after[2]["backups"]
        assert all(
            isinstance(entry["backups"], list) for entry in after.values()
        )

    def test_placement_map_updates_after_recovery(self, machine):
        install_recovery(machine)
        arr = make_array(machine, replication=1)
        arr.from_numpy(np.ones((8, 8)))
        machine.fail(1)
        placement = durability(machine, arr).diagnostics()["placement"]
        assert placement[1]["owner"] == 4
        assert 1 not in {entry["owner"] for entry in placement.values()}

    def test_machine_diagnostics_expose_placement(self, machine):
        arr = make_array(machine, replication=1)
        arr.migrate({0: 5})
        arrays = machine.diagnostics()["arrays"]
        entry = arrays[str(arr.array_id.as_tuple())]
        assert entry["placement"][0]["owner"] == 5
        assert entry["sections_migrated"] == 1

    def test_migration_log_records_moves(self, machine):
        arr = make_array(machine)
        arr.migrate({1: 4})
        log = get_array_manager(machine).migrations[-1]
        assert log["ok"]
        assert log["moves"] == [(1, 1, 4)]
        assert log["epoch"] == 1

    def test_migration_counter_advances(self, machine):
        observer = machine.observe()
        try:
            arr = make_array(machine)
            arr.migrate({0: 4})
            snap = observer.metrics.snapshot()
        finally:
            observer.close()
        key = f'{{array="{arr.array_id.as_tuple()}"}}'
        assert snap["repro_sections_migrated_total" + key] == 1


# -- runtime membership -------------------------------------------------------


class TestAddProcessor:
    def test_add_processor_grows_the_machine(self, machine):
        assert machine.num_nodes == 6
        number = machine.add_processor()
        assert number == 6
        assert machine.num_nodes == 7
        assert not machine.is_failed(6)
        assert machine.diagnostics()["added_processors"] == [6]

    def test_migrate_onto_added_processor(self, machine):
        arr = make_array(machine, replication=1)
        ref = np.arange(64, dtype=float).reshape(8, 8)
        arr.from_numpy(ref)
        new = machine.add_processor()
        moved = arr.migrate({0: new})
        assert moved == [0]
        assert arr.processors[0] == new
        assert np.array_equal(arr.to_numpy(), ref)

    def test_added_processor_serves_requests(self, machine):
        arr = make_array(machine)
        arr.from_numpy(np.full((8, 8), 7.0))
        new = machine.add_processor()
        arr.migrate({2: new})
        value, status = am_user.read_element(
            machine, arr.array_id, (4, 0), processor=new
        )
        assert status is Status.OK and value == 7.0
