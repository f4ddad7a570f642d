"""Durable-array unit tests: replica maps, replicated writes, epochs,
checkpoint/restore, and durability diagnostics."""

import threading
import time

import numpy as np
import pytest

from repro.arrays import am_user, am_util
from repro.arrays.durability import (
    REPLICA_UPDATE_KIND,
    ArraySnapshot,
    ReplicaMap,
    ReplicaUpdate,
    replica_store_for,
)
from repro.arrays.layout import ArrayLayout
from repro.arrays.manager import get_array_manager
from repro.arrays.record import ArrayID
from repro.core.darray import DistributedArray
from repro.faults import FaultPlan, FaultyTransport, KillSpec
from repro.status import Status
from repro.vp.fabric import TrafficMeter
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


# -- ReplicaMap ---------------------------------------------------------------


def layout_2x2():
    return ArrayLayout(
        dims=(8, 8), grid=(2, 2), borders=(0, 0, 0, 0),
        indexing="row", grid_indexing="row",
    )


def test_replica_chains_ring_placement():
    chains = layout_2x2().replica_chains((10, 11, 12, 13), 2)
    assert chains == [(11, 12), (12, 13), (13, 10), (10, 11)]


def test_replica_chains_never_include_owner():
    procs = (0, 1, 2, 3)
    for k in range(4):
        for s, chain in enumerate(layout_2x2().replica_chains(procs, k)):
            assert len(chain) == k
            assert procs[s] not in chain


def test_replica_chains_rejects_bad_replication():
    with pytest.raises(ValueError):
        layout_2x2().replica_chains((0, 1, 2, 3), 4)
    with pytest.raises(ValueError):
        layout_2x2().replica_chains((0, 1, 2, 3), -1)


def test_replica_map_is_deterministic():
    lay = layout_2x2()
    a = ReplicaMap.assign(lay, (0, 1, 2, 3), 1)
    b = ReplicaMap.assign(lay, (0, 1, 2, 3), 1)
    assert a == b
    assert a.backups_for(3) == (0,)
    assert a.hosts() == {0, 1, 2, 3}


def test_create_array_rejects_excess_replication(machine):
    _, status = am_user.create_array(
        machine, "double", (8, 8), [0, 1, 2, 3], DISTRIB_2X2, replication=4
    )
    assert status is Status.INVALID


# -- replicated writes --------------------------------------------------------


def test_writes_mirror_to_backups(machine):
    arr = make_array(machine, replication=1)
    ref = np.arange(64, dtype=float).reshape(8, 8)
    arr.from_numpy(ref)
    state = get_array_manager(machine).durability_state(arr.array_id)
    for section in range(4):
        for backup in state.replica_map.backups_for(section):
            entry = replica_store_for(
                machine.processor(backup)
            ).fetch(arr.array_id, section)
            assert entry is not None
            _epoch, mirror = entry
            origin, primary = arr.local_block(state.processors[section])
            assert np.array_equal(mirror, primary)


def test_element_write_mirrors(machine):
    arr = make_array(machine, replication=2)
    arr[5, 6] = 42.0
    # The read is a flush point for the write-behind coalescer: it forces
    # the queued write (and its fused replica update) out to the mirrors.
    assert arr[5, 6] == 42.0
    state = get_array_manager(machine).durability_state(arr.array_id)
    section, local = arr.layout.locate((5, 6))
    for backup in state.replica_map.backups_for(section):
        _epoch, mirror = replica_store_for(
            machine.processor(backup)
        ).fetch(arr.array_id, section)
        assert mirror[local] == 42.0


def test_replica_updates_visible_to_traffic_meter(machine):
    meter = TrafficMeter()
    machine.transport_stack.push(meter)
    try:
        arr = make_array(machine, replication=1)
        arr.from_numpy(np.ones((8, 8)))
        counts = meter.snapshot()["by_kind"]
        # One whole-array region write = 4 section writes x 1 backup each.
        assert counts.get(REPLICA_UPDATE_KIND, (0, 0))[0] >= 4
        # Exactly k a section write, seeding aside: two backups each.
        arr = make_array(machine, replication=2)
        seeded = meter.snapshot()["by_kind"][REPLICA_UPDATE_KIND][0]
        arr.from_numpy(np.ones((8, 8)))
        written = meter.snapshot()["by_kind"][REPLICA_UPDATE_KIND][0]
        assert written - seeded == 4 * 2
    finally:
        machine.transport_stack.remove(meter)


def test_unreplicated_writes_ship_no_replica_messages(machine):
    meter = TrafficMeter()
    machine.transport_stack.push(meter)
    try:
        arr = make_array(machine, replication=0)
        arr.from_numpy(np.ones((8, 8)))
        assert REPLICA_UPDATE_KIND not in meter.snapshot()["by_kind"]
    finally:
        machine.transport_stack.remove(meter)


def test_stale_replica_update_rejected(machine):
    arr = make_array(machine, replication=1)
    arr.from_numpy(np.zeros((8, 8)))
    state = get_array_manager(machine).durability_state(arr.array_id)
    backup = state.replica_map.backups_for(0)[0]
    store = replica_store_for(machine.processor(backup))
    current_epoch, _ = store.fetch(arr.array_id, 0)
    stale = ReplicaUpdate(
        array_id=arr.array_id, section=0, epoch=current_epoch - 1,
        shape=arr.layout.local_dims, type_name="double",
        mutations=((None, np.full(arr.layout.local_dims, 99.0)),),
    )
    assert not store.apply(stale)
    _epoch, mirror = store.fetch(arr.array_id, 0)
    assert not np.any(mirror == 99.0)


# -- checkpoint / restore -----------------------------------------------------


def test_checkpoint_restore_round_trip(machine):
    arr = make_array(machine, replication=0)
    ref = np.arange(64, dtype=float).reshape(8, 8)
    arr.from_numpy(ref)
    snapshot = arr.checkpoint()
    assert isinstance(snapshot, ArraySnapshot)
    assert np.array_equal(snapshot.assemble(), ref)
    arr.from_numpy(np.zeros((8, 8)))
    arr.restore(snapshot)
    assert np.array_equal(arr.to_numpy(), ref)


def test_checkpoint_and_restore_advance_the_epoch(machine):
    arr = make_array(machine, replication=1)
    state = get_array_manager(machine).durability_state(arr.array_id)
    assert state.epoch == 0
    snap1 = arr.checkpoint()
    assert snap1.epoch == 1 and state.epoch == 1
    snap2 = arr.checkpoint()
    assert snap2.epoch == 2 and state.epoch == 2
    arr.restore(snap1)
    assert state.epoch == 3  # restore always moves forward, never back
    assert state.last_checkpoint_epoch == 2


def test_restore_rejects_foreign_snapshot(machine):
    arr = make_array(machine, replication=0)
    other = make_array(machine, replication=0)
    snapshot = other.checkpoint()
    status = am_user.restore_array(machine, arr.array_id, snapshot)
    assert status is Status.INVALID


def test_checkpoint_unknown_array(machine):
    snapshot, status = am_user.checkpoint_array(machine, ArrayID(0, 999))
    assert snapshot is None
    assert status is Status.NOT_FOUND


def test_a_kill_by_a_replica_update_is_notified_after_the_record_lock(
    machine,
):
    """A kill fired by a commit's own replica update runs its failure
    listeners (recovery, which takes the state lock) once the commit has
    released the record lock: under it, recovery and a migration that
    holds the state lock and waits for the record lock wait for each
    other."""
    arr = make_array(machine, replication=1)
    state = get_array_manager(machine).durability_state(arr.array_id)
    record = get_array_manager(machine)._lookup(
        machine.processor(3), arr.array_id
    )
    backup = state.replica_map.backups_for(3)[0]
    under_record_lock = []

    def probe(number):
        # The record lock is reentrant: only another thread can tell
        # whether this one holds it.
        free = []

        def try_record_lock():
            if record.lock.acquire(blocking=False):
                record.lock.release()
                free.append(True)

        helper = threading.Thread(target=try_record_lock)
        helper.start()
        helper.join(timeout=10)
        assert not helper.is_alive()
        under_record_lock.append((number, not free))

    machine.add_failure_listener(probe)
    plan = FaultPlan(kills=(KillSpec(backup, after=1, on="recv"),))
    with FaultyTransport(machine, plan):
        # Section 3's owner commits, then updates its backup's mirror.
        am_user.write_region(
            machine, arr.array_id, [(4, 8), (4, 8)], np.ones((4, 4)),
            processor=3,
        )
    assert under_record_lock == [(backup, False)]


def test_checkpoint_with_a_dead_owner_leaves_no_worker_behind():
    """A dead owner fails the checkpoint before any worker starts: a
    worker already in the cut's barrier would hold its record lock, and
    stall every write to its section, until the receive deadline."""
    machine = Machine(6, default_recv_timeout=5)
    am_util.load_all(machine)
    arr = make_array(machine, replication=0)
    owners = (0, 1, 3)
    before = [machine.processor(p).live_process_count() for p in owners]
    machine.fail(2)
    snapshot, status = am_user.checkpoint_array(machine, arr.array_id)
    assert (snapshot, status) == (None, Status.ERROR)
    assert [machine.processor(p).live_process_count() for p in owners] == (
        before
    )
    started = time.monotonic()
    arr[0, 0] = 1.0
    assert arr[0, 0] == 1.0
    assert time.monotonic() - started < 2.5


def test_checkpoint_reseeds_nothing_but_restore_reseeds_mirrors(machine):
    arr = make_array(machine, replication=1)
    ref = np.arange(64, dtype=float).reshape(8, 8)
    arr.from_numpy(ref)
    snapshot = arr.checkpoint()
    arr.from_numpy(ref * 2)
    arr.restore(snapshot)
    state = get_array_manager(machine).durability_state(arr.array_id)
    for section in range(4):
        backup = state.replica_map.backups_for(section)[0]
        epoch, mirror = replica_store_for(
            machine.processor(backup)
        ).fetch(arr.array_id, section)
        origin, primary = arr.local_block(state.processors[section])
        assert np.array_equal(mirror, primary)
        assert epoch == state.epoch


# -- diagnostics --------------------------------------------------------------


def test_diagnostics_reports_durability_state(machine):
    arr = make_array(machine, replication=1)
    arr.checkpoint()
    diag = machine.diagnostics()["arrays"][str(arr.array_id.as_tuple())]
    assert diag["replication"] == 1
    assert diag["epoch"] == 1
    assert diag["last_checkpoint_epoch"] == 1
    assert diag["sections_rebuilt"] == 0
    assert diag["stale_replica_updates_rejected"] == 0


def test_free_array_drops_durability_state(machine):
    arr = make_array(machine, replication=1)
    key = str(arr.array_id.as_tuple())
    assert key in machine.diagnostics()["arrays"]
    arr.free()
    assert key not in machine.diagnostics()["arrays"]


def test_find_info_exposes_replication_and_epoch(machine):
    arr = make_array(machine, replication=1)
    value, status = am_user.find_info(machine, arr.array_id, "replication")
    assert status is Status.OK and value == 1
    arr.checkpoint()
    value, status = am_user.find_info(
        machine, arr.array_id, "epoch", processor=1
    )
    assert status is Status.OK and value == 1
