"""What one planned halo-exchange phase costs.

    python3 scripts/halo_phase.py [--src DIR] [--depth D] [--phases N]
        [--rounds R]

An untraced measurement, pinned to one CPU like the benchmark's children,
nothing installed.  ``--src`` points at the ``src`` directory of another
checkout (the parent commit, say), so the same file measures both sides.

One exchange phase of a 32 x 64 array with borders ``--depth`` deep
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
strip; the strips and cell bytes the registry counted must be the ones
the measured tree's halo model (``repro.spmd.costs.halo_phase``) gives,
so a tree older than that model cannot be measured.

Where a whole FIG-2.1 op goes — component step, interface exchange, the
two ``to_numpy`` — and whether its wire is the derived one is
``scripts/op_phases.py --workload climate_halo``.

Every number is the median of the quietest round (the one with the smallest
whole-phase median): the host's speed wanders.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time
from pathlib import Path

SHAPE = (32, 64)
clock = time.perf_counter_ns


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
    from repro.spmd.costs import halo_phase

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
    two_stage = any(edge.stage == 1 for edge in plan.edges)
    strips, cell_bytes = halo_phase(
        arr.layout.local_dims, grid, depth, header=0
    )

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
                ex._claim_stage(0)
                ex._post_stage(1)
            for ex in exchanges:
                ex._secure_pending()
                ex._claim_stage(1)
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


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--src", default=str(Path(__file__).resolve().parent.parent / "src"),
        help="src directory of the tree to measure; it needs the halo model "
        "(repro.spmd.costs.halo_phase), which older trees lack",
    )
    parser.add_argument("--depth", type=int, default=1)
    parser.add_argument("--phases", type=int, default=2000)
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    print(f"src         {args.src}")
    for grid in ((4, 1), (2, 2)):
        phase_cost(grid, args.depth, args.phases, args.rounds)


if __name__ == "__main__":
    main()
