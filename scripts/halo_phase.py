"""What one planned halo-exchange phase costs, and where a FIG-2.1 op goes.

    python3 scripts/halo_phase.py [--src DIR] [--depth D] [--phases N] [--ops N]
        [--rounds R]

Two untraced measurements, pinned to one CPU like the benchmark's children,
nothing installed.  ``--src`` points at the ``src`` directory of another
checkout (the parent commit, say), so the same file measures both sides.

(i) One exchange phase of a 32 x 64 array with borders ``--depth`` deep
(default 1), exchanged at that depth, on a ``(4, 1)`` and on a ``(2, 2)``
grid, driven from a single thread: every section's
``prefetch()``, then every section's ``complete()``.  Delivery is synchronous
on the sender's thread, so each strip is parked before its claimer asks for
it and no suspension, wake-up or thread switch is in the number — it is the
exchange machinery alone.  A rank-2 grid with a second stage cannot be
walked that way (a copy posts its column strips inside ``complete()``, after
claiming its row strips, and the next copy's ``complete()`` waits for them),
so for ``(2, 2)`` the script walks ``complete()``'s own steps in stage order:
secure / claim 0 / post 1 for every copy, then secure / claim 1 for every
copy.  Printed: the depth, microseconds per phase, per copy-phase and per
strip; the strips and bytes the registry counted must be the derived ones.

(ii) The split of one ``climate_halo`` op (``ClimateSimulation(rt8, shape=(32,
64), sweeps_per_step=2).run(1)``) into the concurrent component step, the
task-level interface exchange and the two ``to_numpy`` reads, from the
``CoupledResult`` the op returns — and, beside it, what was measured: the
border depth the simulation allocated, and phases, strips and strip bytes an
op from ``PlanRegistry.diagnostics()``.  The script exits non-zero when the
op's routed messages or bytes differ from :func:`op_wire`'s figure, derived
from (grid, depth, sweeps) alone — the pinned-wire test
(``tests/perf/test_replica_fusion.py``) spells the same number its own way.

Every number is the median of the quietest round (the one with the smallest
whole-phase / whole-op median): the host's speed wanders.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time
from pathlib import Path

SHAPE = (32, 64)
SWEEPS = 2
STRIP_HEADER = 64  # bytes a ``halo_bulk`` message carries beside its cells
# What the task level routes in one op on 8 processors, 4 a domain: the
# atmosphere's interface row read from processor 7 (the ocean's is on
# processor 0, where the top-level thread's requests run; both rows are
# written in place), and 3 + 4 owners asked by the two ``to_numpy``.
TASK_MSGS = 8
clock = time.perf_counter_ns


def phase_wire(grid: tuple, k: int) -> tuple:
    """(strips, cell bytes) of one depth-``k`` phase of a SHAPE array on
    ``grid``: stage 0 swaps ``k`` rows of interior columns across every
    cut between section rows, both ways; stage 1 swaps ``k`` columns of
    the full row range (the ``k`` halo rows on either side included)
    across every cut between section columns."""
    (gr, gc), (h, w) = grid, (SHAPE[0] // grid[0], SHAPE[1] // grid[1])
    row_strips, col_strips = 2 * (gr - 1) * gc, 2 * gr * (gc - 1)
    cells = k * (row_strips * w + col_strips * (h + 2 * k))
    return row_strips + col_strips, 8 * cells


def op_wire(grid: tuple, depth: int, sweeps: int) -> tuple:
    """(messages, bytes) one coupled step of two SHAPE domains routes: a
    call is ``ceil(sweeps / depth)`` phases, the last as shallow as the
    sweeps left; the task level adds TASK_MSGS one-word requests."""
    msgs, nbytes = TASK_MSGS, 8 * TASK_MSGS
    while sweeps > 0:
        strips, cell_bytes = phase_wire(grid, min(depth, sweeps))
        msgs += 2 * strips
        nbytes += 2 * (cell_bytes + STRIP_HEADER * strips)
        sweeps -= depth
    return msgs, nbytes


def quietest(rounds: list) -> list:
    """Per-column medians (us) of the round whose last column is smallest."""
    medians = [
        [statistics.median(col) / 1e3 for col in zip(*samples)]
        for samples in rounds
    ]
    return min(medians, key=lambda row: row[-1])


def phase_cost(grid: tuple, depth: int, phases: int, rounds: int) -> None:
    from repro.arrays.manager import get_array_manager
    from repro.core.darray import DistributedArray
    from repro.core.runtime import IntegratedRuntime
    from repro.perf import get_perf_layer

    rt = IntegratedRuntime(8)
    machine = rt.machine
    procs = list(range(grid[0] * grid[1]))
    arr = DistributedArray.create(
        machine, "double", SHAPE, procs,
        [("block", grid[0]), ("block", grid[1])], borders=[depth] * 4,
    )
    manager = get_array_manager(machine)
    registry = get_perf_layer(machine).plans
    plan = arr.halo_plan()
    copies = []
    for section, owner in enumerate(
        manager.durability_state(arr.array_id).processors
    ):
        record = manager._lookup(machine.processor(owner), arr.array_id)
        copies.append((record, record.section.full(), section, owner))
    two_stage = len(plan.transfers(depth, stage=1)) > 0
    # A --src checkout from before PR 23 has _claim_stage(index, sides).
    from repro.perf.commplan import HaloExchange
    every_side = (None,) * (HaloExchange._claim_stage.__code__.co_argcount - 2)
    strips, cell_bytes = phase_wire(grid, depth)

    def phase(i: int) -> tuple:
        t0 = clock()
        exchanges = [
            plan.begin(
                registry, record, full, section, depth, ("phase", i), owner
            )
            for record, full, section, owner in copies
        ]
        for ex in exchanges:
            ex.prefetch()
        if two_stage:
            for ex in exchanges:
                ex._secure_pending()
                ex._claim_stage(0, *every_side)
                ex._post_stage(1)
            for ex in exchanges:
                ex._secure_pending()
                ex._claim_stage(1, *every_side)
        else:
            for ex in exchanges:
                ex.complete()
        return (clock() - t0,)

    for i in range(phases // 5):  # warm-up
        phase(-1 - i)
    (whole,) = quietest(
        [[phase(r * phases + i) for i in range(phases)] for r in range(rounds)]
    )
    run = phases // 5 + phases * rounds
    counted = (
        registry.strips_sent, registry.strips_claimed, registry.bytes_claimed
    )
    assert counted == (strips * run, strips * run, cell_bytes * run), (
        counted, strips, cell_bytes, run,
    )
    print(
        f"phase {grid} depth {depth}   {whole:7.1f} us   "
        f"{whole / len(copies):6.1f} us per copy-phase   "
        f"{whole / strips:6.1f} us per strip   "
        f"({len(copies)} sections, {strips} strips, {cell_bytes} B)"
    )
    arr.free()


def op_split(ops: int, rounds: int) -> None:
    from repro.apps.climate import ClimateSimulation
    from repro.core.runtime import IntegratedRuntime
    from repro.perf import get_perf_layer

    rt = IntegratedRuntime(8)
    sim = ClimateSimulation(rt, shape=SHAPE, sweeps_per_step=SWEEPS)
    grid = (sim.ocean.grid_rows, sim.ocean.grid_cols)
    depth = sim.ocean.array.layout.borders[0]
    registry = get_perf_layer(rt.machine).plans

    def op() -> tuple:
        t0 = clock()
        run = sim.run(1)
        whole = clock() - t0
        result = run.coupled_result
        step = result.step_wall_times[0] * 1e9
        exchange = result.exchange_wall_times[0] * 1e9
        return step, exchange, whole - result.wall_time * 1e9, whole

    for _ in range(ops // 5):  # warm-up: thread pool, plan cache
        op()
    rt.machine.reset_traffic()
    before = registry.diagnostics()
    step, exchange, reads, whole = quietest(
        [[op() for _ in range(ops)] for _ in range(rounds)]
    )
    traffic = rt.machine.traffic_snapshot()
    after = registry.diagnostics()
    n = ops * rounds
    phases, strips, cell_bytes = (
        (after[key] - before[key]) / n
        for key in ("exchanges", "strips_sent", "bytes_claimed")
    )
    sections = 2 * grid[0] * grid[1]
    print(f"component step      {step:8.1f} us  ({step / whole:.0%} of the op)")
    print(f"interface exchange  {exchange:8.1f} us")
    print(f"to_numpy x2         {reads:8.1f} us")
    print(f"op                  {whole:8.1f} us")
    print(f"borders {depth} deep on {grid}, {SWEEPS} sweeps a step; an op: "
          f"phases a call {phases / sections:g}, strips {strips:g}, "
          f"strip cells {cell_bytes:g} B")
    wire = (traffic["messages"] / n, traffic["bytes"] / n)
    print(f"per op              {wire[0]:g} msgs  {wire[1]:g} B")
    sim.free()
    derived = op_wire(grid, depth, SWEEPS)
    if wire != derived:
        sys.exit(f"per op {wire} is not the derived {derived} msgs, B")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--src", default=str(Path(__file__).resolve().parent.parent / "src")
    )
    parser.add_argument("--depth", type=int, default=1)
    parser.add_argument("--phases", type=int, default=2000)
    parser.add_argument("--ops", type=int, default=600)
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    print(f"src         {args.src}")
    for grid in ((4, 1), (2, 2)):
        phase_cost(grid, args.depth, args.phases, args.rounds)
    op_split(args.ops, args.rounds)


if __name__ == "__main__":
    main()
