"""Durability fuzz: seeded random kill schedules against a replicated
array under concurrent region writes.

Each seed draws a :func:`~repro.faults.plan.random_kills` schedule, runs
four writer threads over disjoint row bands (each write retried through
machine-level failures), and asserts the recovered array verifies and is
bit-identical to the fault-free expectation.  The seed window shifts with
``REPRO_FUZZ_SEED_BASE`` so CI shards explore disjoint schedules.
"""

import os
import threading
import time

import numpy as np
import pytest

from repro.arrays import am_user, am_util
from repro.arrays.manager import get_array_manager
from repro.core.darray import DistributedArray
from repro.faults import FaultPlan, FaultyTransport, install_recovery, random_kills
from repro.status import ProcessorFailedError, Status
from repro.vp.machine import Machine

SEED_BASE = int(os.environ.get("REPRO_FUZZ_SEED_BASE", "0"))
SEEDS = list(range(SEED_BASE, SEED_BASE + 20))

DISTRIB_2X2 = (("block", 2), ("block", 2))
DIMS = (8, 8)
# Disjoint row bands, one writer thread each, covering every row.
BANDS = [(0, 3), (3, 5), (5, 7), (7, 8)]
PASSES = 2
MAX_WRITE_ATTEMPTS = 10


def row_value(seed: int, band: int, row: int, pass_no: int) -> float:
    return float(seed * 1000 + band * 100 + row * 10 + pass_no)


def expected_array(seed: int) -> np.ndarray:
    out = np.zeros(DIMS)
    for band, (lo, hi) in enumerate(BANDS):
        for row in range(lo, hi):
            out[row, :] = row_value(seed, band, row, PASSES - 1)
    return out


def durable_write(machine, array_id, row, data, errors):
    """One row write, retried through kills and recoveries."""
    for _ in range(MAX_WRITE_ATTEMPTS):
        try:
            status = am_user.write_region(
                machine, array_id, [(row, row + 1), (0, DIMS[1])], data
            )
        except (ProcessorFailedError, TimeoutError):
            continue
        if status is Status.OK:
            return
    errors.append(f"row {row}: write never committed")


# A seed that found a bug stays, whatever the window: 108 kills a
# section owner inside a migration's own traffic (the rollback that freed
# what the nested recovery had installed).
MIGRATE_SEEDS = sorted({*range(SEED_BASE, SEED_BASE + 10), 108})


@pytest.mark.parametrize("seed", MIGRATE_SEEDS)
def test_migrations_interleaved_with_kills_stay_epoch_consistent(seed):
    """Planned migrations racing scripted kills and concurrent writes.

    A migrator thread keeps moving sections onto spare VPs while the
    writers hammer the array and the fault plan kills section owners;
    any individual migration may fail (rolled back, or refused as stale
    when recovery rewrites membership underneath it) — but after
    quiesce the array must verify and match the fault-free expectation
    bit for bit under its final epoch-consistent membership.
    """
    from repro.arrays.placement import MigrationError

    machine = Machine(6, default_recv_timeout=5)
    am_util.load_all(machine)
    install_recovery(machine)
    arr = DistributedArray.create(
        machine, "double", DIMS, [0, 1, 2, 3], DISTRIB_2X2, replication=1
    )
    manager = get_array_manager(machine)

    plan = FaultPlan(
        seed=seed,
        kills=random_kills(seed, processors=[1, 2, 3], count=1 + seed % 2),
    )
    errors: list = []
    stop = threading.Event()

    def patient_write(row, data):
        """Like durable_write but tolerant of sections in flight: a row
        aimed at a migrating section may bounce for several rounds."""
        for _ in range(40):
            try:
                status = am_user.write_region(
                    machine, arr.array_id, [(row, row + 1), (0, DIMS[1])], data
                )
            except (ProcessorFailedError, TimeoutError):
                continue
            if status is Status.OK:
                return
            time.sleep(0.001)  # let the in-flight move land or roll back
        errors.append(f"row {row}: write never committed")

    def writer(band, lo, hi):
        for pass_no in range(PASSES):
            for row in range(lo, hi):
                data = np.full((1, DIMS[1]), row_value(seed, band, row, pass_no))
                patient_write(row, data)

    def migrator():
        """Shuttle sections onto spares until the writers finish."""
        rounds = 0
        while not stop.is_set() and rounds < 12:
            rounds += 1
            time.sleep(0.002)
            state = manager.durability_state(arr.array_id)
            if state is None:
                return
            with state.lock:
                owners = tuple(state.processors)
            spares = [
                p
                for p in range(machine.num_nodes)
                if not machine.is_failed(p) and p not in owners
            ]
            movable = [
                s
                for s, p in enumerate(owners)
                if p != 0 and not machine.is_failed(p)
            ]
            if not spares or not movable:
                continue
            section = movable[rounds % len(movable)]
            try:
                am_user.migrate_sections(
                    machine, arr.array_id, {section: spares[0]}
                )
            except (
                ProcessorFailedError,
                TimeoutError,
                MigrationError,
            ):
                continue  # rolled back or refused: both are fine

    with FaultyTransport(machine, plan) as ft:
        threads = [
            threading.Thread(target=writer, args=(band, lo, hi))
            for band, (lo, hi) in enumerate(BANDS)
        ]
        mover_thread = threading.Thread(target=migrator)
        for t in threads:
            t.start()
        mover_thread.start()
        for t in threads:
            t.join()
        stop.set()
        mover_thread.join()

    assert not errors, errors
    state = manager.durability_state(arr.array_id)
    if ft.stats.killed:
        assert set(state.processors).isdisjoint(ft.stats.killed)
    # Epoch-consistent membership after quiesce: every owner's record
    # sits at the state's authoritative epoch.
    assert len(set(state.processors)) == len(state.processors)
    assert (
        am_user.verify_array(machine, arr.array_id, 2, [0, 0, 0, 0], "row")
        is Status.OK
    )
    assert np.array_equal(arr.to_numpy(), expected_array(seed))


@pytest.mark.parametrize("seed", SEEDS)
def test_random_kills_recover_to_fault_free_contents(seed):
    machine = Machine(6, default_recv_timeout=5)
    am_util.load_all(machine)
    install_recovery(machine)
    arr = DistributedArray.create(
        machine, "double", DIMS, [0, 1, 2, 3], DISTRIB_2X2, replication=1
    )

    # Victims come from the section owners 1..3 — never VP 0, where the
    # test's own requests enter the machine.
    plan = FaultPlan(
        seed=seed,
        kills=random_kills(seed, processors=[1, 2, 3], count=1 + seed % 2),
    )
    errors: list = []

    def writer(band, lo, hi):
        for pass_no in range(PASSES):
            for row in range(lo, hi):
                data = np.full((1, DIMS[1]), row_value(seed, band, row, pass_no))
                durable_write(machine, arr.array_id, row, data, errors)

    with FaultyTransport(machine, plan) as ft:
        threads = [
            threading.Thread(target=writer, args=(band, lo, hi))
            for band, (lo, hi) in enumerate(BANDS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    assert not errors, errors
    state = get_array_manager(machine).durability_state(arr.array_id)
    if ft.stats.killed:
        # Every fired kill hit a section owner; recovery must have moved
        # its sections off the corpse.
        assert state.sections_rebuilt >= 1
        assert set(state.processors).isdisjoint(ft.stats.killed)
    assert (
        am_user.verify_array(machine, arr.array_id, 2, [0, 0, 0, 0], "row")
        is Status.OK
    )
    assert np.array_equal(arr.to_numpy(), expected_array(seed))
