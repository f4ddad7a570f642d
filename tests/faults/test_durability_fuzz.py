"""Durability fuzz: seeded random kill schedules against a replicated
array under concurrent region writes.

Each seed draws a :func:`~repro.faults.plan.random_kills` schedule and
runs four writer threads over disjoint row bands, each row written as
one region per section it crosses (each write retried through
machine-level failures).  After quiesce the array keeps the contract of
docs/fault_model.md §6: within the kill budget — one kill, or
``replication=2`` — nothing is lost and the array is bit-identical to
the fault-free expectation; beyond it every lost section had its owner
killed, a write to it ends at its first ``SectionLostError`` and a read
of it raises one, and every other section is bit-identical.

The seeds are three windows, 0–19, 100–119 and 200–219;
``REPRO_FUZZ_SEED_BASE`` shifts all three so CI shards explore other
schedules.
"""

import os
import threading
import time

import numpy as np
import pytest

from repro.arrays import am_user, am_util
from repro.arrays.manager import get_array_manager
from repro.arrays.redistribute import blocks, dense, transfers
from repro.core.darray import DistributedArray
from repro.faults import FaultPlan, FaultyTransport, install_recovery, random_kills
from repro.status import ProcessorFailedError, SectionLostError, Status
from repro.vp.machine import Machine

SEED_BASE = int(os.environ.get("REPRO_FUZZ_SEED_BASE", "0"))
SEEDS = [
    SEED_BASE + window + i for window in (0, 100, 200) for i in range(20)
]

DISTRIB_2X2 = (("block", 2), ("block", 2))
DIMS = (8, 8)
# Disjoint row bands, one writer thread each, covering every row.
BANDS = [(0, 3), (3, 5), (5, 7), (7, 8)]
# A row is written one section at a time: the column halves of the grid.
HALVES = [(0, DIMS[1] // 2), (DIMS[1] // 2, DIMS[1])]
PASSES = 2
MAX_WRITE_ATTEMPTS = 10
# Far beyond a writer's worst case (its writes' retries, each bounded by
# the recv deadline): a writer still running then is hung.
WRITER_DEADLINE = 120.0


def row_value(seed: int, band: int, row: int, pass_no: int) -> float:
    return float(seed * 1000 + band * 100 + row * 10 + pass_no)


def expected_array(seed: int) -> np.ndarray:
    out = np.zeros(DIMS)
    for band, (lo, hi) in enumerate(BANDS):
        for row in range(lo, hi):
            out[row, :] = row_value(seed, band, row, PASSES - 1)
    return out


def durable_write(machine, array_id, region, data, errors, attempts):
    """One single-section write, retried through kills, recoveries and
    moves — but not past ``SectionLostError``: a lost section is an
    answer.  Each retry backs off (1 ms, doubling up to 64 ms): a kill
    runs its recovery on the thread that fired it, and a writer that
    retries at once can use up its attempts before that thread runs."""
    for attempt in range(attempts):
        try:
            status = am_user.write_region(machine, array_id, region, data)
        except SectionLostError:
            return
        except (ProcessorFailedError, TimeoutError):
            status = None
        if status is Status.OK:
            return
        time.sleep(0.001 * 2 ** min(attempt, 6))
    errors.append(f"{region}: write never committed")


def run_writers(machine, array_id, seed, attempts=MAX_WRITE_ATTEMPTS):
    """The four banded writers, joined; returns their errors."""
    errors: list = []

    def writer(band, lo, hi):
        for pass_no in range(PASSES):
            for row in range(lo, hi):
                value = row_value(seed, band, row, pass_no)
                for c0, c1 in HALVES:
                    durable_write(
                        machine, array_id, [(row, row + 1), (c0, c1)],
                        np.full((1, c1 - c0), value), errors, attempts,
                    )

    threads = [
        threading.Thread(target=writer, args=(band, lo, hi), daemon=True)
        for band, (lo, hi) in enumerate(BANDS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(WRITER_DEADLINE)
    assert not any(t.is_alive() for t in threads), "a writer hung"
    return errors


def assert_contract(machine, arr, seed, killed, within_budget):
    """docs/fault_model.md §6: within the kill budget the array is its
    fault-free twin; beyond it a section is either lost — its owner was
    killed — or bit-identical."""
    state = get_array_manager(machine).durability_state(arr.array_id)
    if within_budget:
        assert state.lost == {}, state.lost
    expected = expected_array(seed)
    layout = arr.layout
    whole = dense(tuple((0, d) for d in layout.dims))
    for section, _, _, slices in transfers(blocks(layout), whole):
        owner = state.processors[section]
        region = [(s.start, s.stop) for s in slices]
        if section in state.lost:
            assert owner in killed, state.lost[section]
            with pytest.raises(SectionLostError):
                arr.read_region(region)
            continue
        assert owner not in killed
        wanted = expected[slices]
        assert np.array_equal(arr.read_region(region), wanted), section
    if not state.lost:
        assert (
            am_user.verify_array(machine, arr.array_id, 2, [0, 0, 0, 0], "row")
            is Status.OK
        )
        assert np.array_equal(arr.to_numpy(), expected)


# A seed that found a bug stays, whatever the window: 108 kills a
# section owner inside a migration's own traffic (the rollback that freed
# what the nested recovery had installed).
MIGRATE_SEEDS = sorted({*SEEDS, 108})


@pytest.mark.parametrize("seed", MIGRATE_SEEDS)
def test_migrations_interleaved_with_kills_stay_epoch_consistent(seed):
    """Planned migrations racing scripted kills and concurrent writes.

    A migrator thread keeps moving sections onto spare VPs while the
    writers hammer the array and the fault plan kills section owners;
    any individual migration may fail (rolled back, or refused as stale
    when recovery rewrites membership underneath it) — but after
    quiesce the array keeps the contract under its final
    epoch-consistent membership.
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
    stop = threading.Event()

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
                SectionLostError,
                TimeoutError,
                MigrationError,
            ):
                continue  # rolled back or refused: both are fine

    with FaultyTransport(machine, plan) as ft:
        mover_thread = threading.Thread(target=migrator, daemon=True)
        mover_thread.start()
        # A row aimed at a migrating section may bounce for several
        # rounds: these writers are more patient.
        errors = run_writers(machine, arr.array_id, seed, attempts=40)
        stop.set()
        mover_thread.join(WRITER_DEADLINE)
        assert not mover_thread.is_alive(), "the migrator hung"

    assert not errors, errors
    state = manager.durability_state(arr.array_id)
    # Epoch-consistent membership after quiesce: one owner per section.
    assert len(set(state.processors)) == len(state.processors)
    assert_contract(
        machine, arr, seed, set(ft.stats.killed), within_budget=seed % 2 == 0
    )


@pytest.mark.parametrize(
    "seed, replication",
    [
        pytest.param(seed, r, id=str(seed) if r == 1 else f"{seed}-r{r}")
        for r in (1, 2)
        for seed in SEEDS
    ],
)
def test_random_kills_recover_to_fault_free_contents(seed, replication):
    machine = Machine(6, default_recv_timeout=5)
    am_util.load_all(machine)
    install_recovery(machine)
    arr = DistributedArray.create(
        machine, "double", DIMS, [0, 1, 2, 3], DISTRIB_2X2,
        replication=replication,
    )

    # Victims come from the section owners 1..3 — never VP 0, where the
    # test's own requests enter the machine.  Odd seeds kill two.
    plan = FaultPlan(
        seed=seed,
        kills=random_kills(seed, processors=[1, 2, 3], count=1 + seed % 2),
    )
    with FaultyTransport(machine, plan) as ft:
        errors = run_writers(machine, arr.array_id, seed)

    assert not errors, errors
    state = get_array_manager(machine).durability_state(arr.array_id)
    if ft.stats.killed:
        # Every fired kill hit a section owner; recovery must have moved
        # a section off a corpse.
        assert state.sections_rebuilt >= 1
    # k backups survive k kills: two at replication=2 lose nothing.
    assert_contract(
        machine, arr, seed, set(ft.stats.killed),
        within_budget=replication == 2 or seed % 2 == 0,
    )
