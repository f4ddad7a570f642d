"""Partition fuzz: seeded random cuts against a replicated array, with
split-brain fencing asserted after heal.

Each seed runs a three-phase schedule:

1. **Before the cut** — banded writer threads commit a full pass of
   content and quiesce.
2. **The partition window** — the seed's cuts are forced active; the
   failure detector (not the oracle) declares the isolated minority
   dead, recovery rebuilds its sections on the majority, and a *direct
   stale-owner write probe* on the minority side must be refused with
   ``Status.STALE_EPOCH`` (the fencing token at work).
3. **After heal** — the minority heartbeats again, is quarantined and
   rejoined, and a second full write pass (interleaved with scripted
   kills and opportunistic migrations) must converge.

Final asserts: zero split-brain (exactly one live owner per section at
the authoritative epoch), every probe fenced, recovery fired at most
once per dead episode, and the array bit-identical to the fault-free
expectation.

The machine runs on a :class:`~repro.vp.clock.ManualClock`: the
detector's rounds happen when the test steps the clock, on the test's
thread, so what is left of a run's wall time is the writes and the recv
deadlines recovery waits out.

The seed window shifts with ``REPRO_PARTITION_SEED_BASE`` so CI shards
explore disjoint cuts.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np
import pytest

from repro.arrays import am_user, am_util
from repro.arrays.manager import _records, get_array_manager
from repro.core.darray import DistributedArray
from repro.faults import (
    FaultPlan,
    FaultyTransport,
    PartitionPlan,
    install_recovery,
    random_kills,
    random_partitions,
)
from repro.health import FailureDetector, HealthState
from repro.pcn.defvar import DefVar
from repro.status import ProcessorFailedError, Status
from repro.vp import fabric
from repro.vp.clock import ManualClock
from repro.vp.machine import Machine
from tests.conftest import advance_until

SEED_BASE = int(os.environ.get("REPRO_PARTITION_SEED_BASE", "0"))
SEEDS = list(range(SEED_BASE, SEED_BASE + 10))

DIMS = (8, 8)
DISTRIB_2X2 = (("block", 2), ("block", 2))
BANDS = [(0, 3), (3, 5), (5, 7), (7, 8)]
INTERVAL = 1 / 64


def row_value(seed: int, band: int, row: int, pass_no: int) -> float:
    return float(seed * 1000 + band * 100 + row * 10 + pass_no)


def expected_array(seed: int) -> np.ndarray:
    out = np.zeros(DIMS)
    for band, (lo, hi) in enumerate(BANDS):
        for row in range(lo, hi):
            out[row, :] = row_value(seed, band, row, 1)
    return out


def run_write_pass(machine, array_id, seed, pass_no, errors):
    """One full banded write pass, each row retried through faults."""

    def writer(band, lo, hi):
        for row in range(lo, hi):
            data = np.full((1, DIMS[1]), row_value(seed, band, row, pass_no))
            for _ in range(60):
                try:
                    status = am_user.write_region(
                        machine, array_id, [(row, row + 1), (0, DIMS[1])], data
                    )
                except (ProcessorFailedError, TimeoutError):
                    continue
                if status is Status.OK:
                    break
                time.sleep(0.002)
            else:
                errors.append(f"seed {seed} pass {pass_no} row {row}: "
                              "write never committed")

    threads = [
        threading.Thread(target=writer, args=(band, lo, hi))
        for band, (lo, hi) in enumerate(BANDS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def probe_stale_owner(machine, array_id, vp, section) -> Status:
    """A same-node write issued *on the stale minority VP itself*, to the
    section its own record says it holds — no routed hop, so the
    partition cannot save us: only the epoch fencing token stands between
    this write and split-brain."""
    with fabric.execution_context(processor=vp):
        status = DefVar(f"probe@{vp}")
        machine.server.request(
            "write_region_local", array_id, section,
            (slice(0, 1), slice(0, 1)), np.array([[-1.0]]), status,
            processor=vp,
        )
        return Status(status.read(timeout=5.0))


def live_owners_at_current_epoch(machine, manager, array_id):
    """VPs holding a section of the array at the authoritative epoch."""
    state = manager.durability_state(array_id)
    with state.lock:
        epoch = state.epoch
        members = tuple(state.processors)
    owners = []
    for p in range(machine.num_nodes):
        if machine.is_failed(p):
            continue
        record = _records(machine.processor(p)).get(array_id)
        if record is not None and record.section is not None \
                and record.epoch == epoch:
            owners.append(p)
    return owners, members


@pytest.mark.parametrize("seed", SEEDS)
def test_partition_heal_converges_without_split_brain(seed):
    clock = ManualClock()
    machine = Machine(6, default_recv_timeout=5, clock=clock)

    def rounds(predicate):
        return advance_until(clock, predicate, INTERVAL)

    am_util.load_all(machine)
    coordinator = install_recovery(machine)
    arr = DistributedArray.create(
        machine, "double", DIMS, [0, 1, 2, 3], DISTRIB_2X2, replication=1
    )
    manager = get_array_manager(machine)

    # Cuts drawn over the owner set only (VP 0, the monitor and request
    # entry point, always lands on the majority side; 4 and 5 stay out
    # of every cut so recovery always finds a spare).  Kills interleave
    # from the same owner pool.
    cuts = random_partitions(
        seed, processors=[0, 1, 2, 3], count=1 + seed % 2
    )
    pplan = PartitionPlan(cuts)
    pplan.heal()  # phase 1 runs connected; windows open manually
    fplan = FaultPlan(
        seed=seed,
        kills=random_kills(seed, processors=[1, 2, 3], count=1),
    )
    errors: list = []
    fenced_probes: list = []

    with FaultyTransport(machine, fplan, partitions=pplan) as ft:
        detector = FailureDetector(
            machine, interval=INTERVAL, suspect_after=2.0, dead_after=6.0
        ).install()
        try:
            # -- phase 1: connected writes, then quiesce ---------------
            run_write_pass(machine, arr.array_id, seed, 0, errors)
            assert not errors, errors

            state = manager.durability_state(arr.array_id)
            with state.lock:
                owners_before = tuple(state.processors)

            # -- phase 2: the partition window -------------------------
            minority = sorted(
                {p for cut in cuts for p in cut.side_a}
            )
            for cut in cuts:
                pplan.cut(cut.name)
            # The detector gives up on every unreachable minority VP
            # (oracle kills count immediately; timeouts harden over
            # rounds).
            assert rounds(
                lambda: all(detector.is_dead(p) for p in minority)
            ), f"minority {minority} never declared dead"
            # Recovery pulls the lost sections back onto the majority,
            # inside the round that gives the verdict.  (If a scripted
            # kill stranded a rebuild behind the cut — the only backup on
            # the minority side — it is retried at heal, so the
            # mid-window wait tolerates stragglers.)
            rounds(
                lambda: all(
                    p not in manager.durability_state(arr.array_id).processors
                    for p in minority
                )
            )
            # Stale-owner probes: a minority ex-owner that recovery has
            # superseded still holds its old section at the old epoch —
            # every direct write on it must bounce off the fencing
            # token.
            state = manager.durability_state(arr.array_id)
            with state.lock:
                members_mid = tuple(state.processors)
            for vp in minority:
                if (
                    machine.is_failed(vp)
                    or vp not in owners_before
                    or vp in members_mid
                ):
                    continue
                record = _records(machine.processor(vp)).get(arr.array_id)
                if record is None or record.section is None:
                    continue
                fenced_probes.append((vp, probe_stale_owner(
                    machine, arr.array_id, vp, record.section_number_for(vp)
                )))

            # -- phase 3: heal, rejoin, write again --------------------
            pplan.heal()
            ft.flush()
            # A scripted kill may land at any point — including on a VP
            # mid-rejoin — so "rejoined" and "oracle-killed while we
            # waited" are both terminal outcomes here.
            for vp in minority:
                assert rounds(
                    lambda v=vp: machine.is_failed(v)
                    or detector.state_of(v) is HealthState.ALIVE
                ), f"vp {vp} never rejoined after heal"
            # Membership must converge onto reachable owners (stranded
            # rebuilds retry once the minority returns) before the
            # second pass can commit everywhere.
            assert rounds(
                lambda: all(
                    not machine.is_unavailable(p)
                    for p in manager.durability_state(arr.array_id).processors
                )
            ), "membership never converged onto reachable owners"
            run_write_pass(machine, arr.array_id, seed, 1, errors)
            assert not errors, errors

            # An opportunistic migration interleaved post-heal: moving a
            # section must still work (or roll back cleanly).
            state = manager.durability_state(arr.array_id)
            with state.lock:
                owners = tuple(state.processors)
            spares = [
                p
                for p in range(machine.num_nodes)
                if not machine.is_unavailable(p) and p not in owners
            ]
            movable = [
                s for s, p in enumerate(owners)
                if p != 0 and not machine.is_unavailable(p)
            ]
            if spares and movable:
                try:
                    am_user.migrate_sections(
                        machine, arr.array_id, {movable[0]: spares[0]}
                    )
                except Exception:  # noqa: BLE001
                    pass  # refused/rolled back is acceptable mid-fuzz

            # -- acceptance --------------------------------------------
            # Every stale write was fenced with the stale-epoch status.
            for vp, status in fenced_probes:
                assert status is Status.STALE_EPOCH, (
                    f"stale probe on vp {vp} returned {status}"
                )
            # Zero split-brain: the live owners at the authoritative
            # epoch are exactly the live membership, one per section.
            owners, members = live_owners_at_current_epoch(
                machine, manager, arr.array_id
            )
            live_members = [p for p in members if not machine.is_failed(p)]
            assert sorted(owners) == sorted(live_members), (
                f"split-brain: owners {owners} vs membership {members}"
            )
            assert len(set(members)) == len(members)
            # Recovery *rebuilt* at most once per dead episode per VP
            # (failed attempts — e.g. a backup stranded behind the cut —
            # may retry, but only one rebuild may ever land).
            dead_episodes: dict[int, int] = {}
            for event in detector.events():
                if event.transition == "dead":
                    dead_episodes[event.vp] = dead_episodes.get(event.vp, 0) + 1
            rebuilt: dict[int, int] = {}
            for entry in coordinator.recoveries:
                if entry.get("ok"):
                    rebuilt[entry["dead"]] = rebuilt.get(entry["dead"], 0) + 1
            for vp, count in rebuilt.items():
                assert count <= dead_episodes.get(vp, 0), (
                    f"recovery double-fired for vp {vp}: {count} rebuilds, "
                    f"{dead_episodes.get(vp, 0)} dead episodes"
                )
            # No rebuild left permanently stranded.
            state = manager.durability_state(arr.array_id)
            with state.lock:
                assert state.lost == {}, state.lost
            # The rejoined minority is alive with no stale ownership (its
            # stale sections were freed by the rejoin protocol).
            for vp in minority:
                if machine.is_failed(vp):
                    continue
                record = _records(machine.processor(vp)).get(arr.array_id)
                if record is not None and record.section is not None:
                    state = manager.durability_state(arr.array_id)
                    assert vp in state.processors
        finally:
            detector.close()

    assert (
        am_user.verify_array(machine, arr.array_id, 2, [0, 0, 0, 0], "row")
        is Status.OK
    )
    assert np.array_equal(arr.to_numpy(), expected_array(seed))
