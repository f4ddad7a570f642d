"""Untraced phase split of one op of a gated macro workload.

    python3 scripts/op_phases.py [--workload W] [--src DIR] [--ops N]
        [--rounds R] [--seed S]

``W`` and its phases:

``ex61_calls`` (default)  create x2 / call / free x2 — two vectors over
                          ``IntegratedRuntime(8)``, one distributed call,
                          both freed (``apps/innerproduct.run``)
``climate_halo``          component step / interface exchange /
                          to_numpy x2 — one FIG-2.1 coupled step
                          (``ClimateSimulation.run(1)``), split by the
                          ``CoupledResult`` it returns
``array_writes``          element writes / flush / region / read-backs
``array_reads``           element reads / region

The macro benchmark times the whole op; its tracer splits it but sits on
every hop (an interceptor, wrapped ``route`` and ``DefVar.read``), so what
it says about a layer is an upper bound.  This script runs the same op
with nothing installed, pinned to one CPU like the benchmark's children,
and reads the clock at the phase boundaries only.  Every workload but
``ex61_calls`` is the benchmark's own class (``benchmarks/macro/
workloads.py``), built from ``--seed``, and every op is checked against
its NumPy mirror outside the clock.  ``array_writes``' op flushes its
element writes inside the region write; here the flush is a phase of its
own (``arr.flush()``, the same whole-array flush), so the region finds
nothing queued.  ``--src`` points at the ``src`` directory of another
checkout (the parent commit, say), so the same file measures both sides.

Printed per phase: the median over all ops of the quietest round (the one
with the smallest whole-op median), in microseconds — the host's speed
wanders, and the quietest round is the one least disturbed — and, for a
phase of element requests, that median per request.  Then the routed
messages and bytes an op.  For ``climate_halo`` they must be the figure
:func:`op_wire` derives from (grid, border depth, sweeps) alone — the
pinned-wire test (``tests/perf/test_replica_fusion.py``) spells the same
number its own way — and the script exits non-zero when they are not.
"""

from __future__ import annotations

import argparse
import itertools
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
clock = time.perf_counter_ns

STRIP_HEADER = 64  # bytes a ``halo_bulk`` message carries beside its cells
# What the task level routes in one climate op on 8 processors, 4 a
# domain: the atmosphere's interface row read from processor 7 (the
# ocean's is on processor 0, where the top-level thread's requests run;
# both rows are written in place), and 3 + 4 owners asked by the two
# ``to_numpy``.
TASK_MSGS = 8


def phase_wire(shape: tuple, grid: tuple, k: int) -> tuple:
    """(strips, cell bytes) of one depth-``k`` phase of a ``shape`` array
    on ``grid``: stage 0 swaps ``k`` rows of interior columns across every
    cut between section rows, both ways; stage 1 swaps ``k`` columns of
    the full row range (the ``k`` halo rows on either side included)
    across every cut between section columns."""
    (gr, gc), (h, w) = grid, (shape[0] // grid[0], shape[1] // grid[1])
    row_strips, col_strips = 2 * (gr - 1) * gc, 2 * gr * (gc - 1)
    cells = k * (row_strips * w + col_strips * (h + 2 * k))
    return row_strips + col_strips, 8 * cells


def op_wire(shape: tuple, grid: tuple, depth: int, sweeps: int) -> tuple:
    """(messages, bytes) one coupled step of two ``shape`` domains routes:
    a call is ``ceil(sweeps / depth)`` phases, the last as shallow as the
    sweeps left; the task level adds TASK_MSGS one-word requests."""
    msgs, nbytes = TASK_MSGS, 8 * TASK_MSGS
    while sweeps > 0:
        strips, cell_bytes = phase_wire(shape, grid, min(depth, sweeps))
        msgs += 2 * strips
        nbytes += 2 * (cell_bytes + STRIP_HEADER * strips)
        sweeps -= depth
    return msgs, nbytes


def ex61_calls(rt, seed: int) -> tuple:
    from repro.apps.innerproduct import expected_inner_product, test_iprdv
    from repro.calls.params import Index, Reduce

    procs = rt.all_processors()
    p, local_m = rt.num_nodes, 4
    m = p * local_m
    expected = expected_inner_product(m)

    def op(i: int) -> tuple:
        t0 = clock()
        v1 = rt.array("double", (m,), procs, ["block"])
        v2 = rt.array("double", (m,), procs, ["block"])
        t1 = clock()
        result = rt.call(
            procs,
            test_iprdv,
            [procs, p, Index(), m, local_m, v1, v2, Reduce("double", 1, "max")],
        )
        t2 = clock()
        v1.free()
        v2.free()
        t3 = clock()
        assert float(result.reductions[0]) == expected
        return t1 - t0, t2 - t1, t3 - t2, t3 - t0

    return ("create x2", "call", "free x2"), {}, op, None


def climate_halo(rt, seed: int) -> tuple:
    import numpy as np
    from benchmarks.macro.workloads import ClimateHalo

    w = ClimateHalo(rt, np.random.default_rng(seed))
    ocean = w.sim.ocean

    def op(i: int) -> tuple:
        t0 = clock()
        run = w.run_op(i)
        whole = clock() - t0
        assert w.ok(i, run)
        result = run.coupled_result
        step = result.step_wall_times[0] * 1e9
        exchange = result.exchange_wall_times[0] * 1e9
        return step, exchange, whole - result.wall_time * 1e9, whole

    wire = op_wire(
        w.shape, (ocean.grid_rows, ocean.grid_cols),
        ocean.array.layout.borders[0], w.sweeps,
    )
    names = ("component step", "interface exchange", "to_numpy x2")
    return names, {}, op, wire


def array_writes(rt, seed: int) -> tuple:
    import numpy as np
    from benchmarks.macro.workloads import POOL, ArrayWrites

    w = ArrayWrites(rt, np.random.default_rng(seed))
    arr = w.arr

    def op(i: int) -> tuple:
        writes, (r0, c0), block, readbacks = w.inputs[i % POOL]
        t0 = clock()
        for row, col, value in writes:
            arr[row, col] = value
        t1 = clock()
        arr.flush()
        t2 = clock()
        arr.write_region([(r0, r0 + 16), (c0, c0 + 16)], block)
        t3 = clock()
        values = [arr[row, col] for row, col in readbacks]
        t4 = clock()
        assert w.ok(i, values)
        return t1 - t0, t2 - t1, t3 - t2, t4 - t3, t4 - t0

    requests = {
        "element writes": sum(w.per_section),
        "read-backs": len(w.readback_sections),
    }
    names = ("element writes", "flush", "region", "read-backs")
    return names, requests, op, None


def array_reads(rt, seed: int) -> tuple:
    import numpy as np
    from benchmarks.macro.workloads import POOL, ArrayReads

    w = ArrayReads(rt, np.random.default_rng(seed))
    arr = w.arr

    def op(i: int) -> tuple:
        cells, values, (r0, c0) = w.inputs[i % POOL]
        t0 = clock()
        got = []
        for k, cell in enumerate(cells):
            got.append(arr[cell])
            if k % 16 == 15:
                arr[cell] = values[k // 16]
                got.append(arr[cell])
        t1 = clock()
        region = arr.read_region([(r0, r0 + 32), (c0, c0 + 32)])
        t2 = clock()
        assert w.ok(i, (got, region))
        return t1 - t0, t2 - t1, t2 - t0

    # Every 16th read is followed by a write and a read-back of its cell.
    requests = {"element reads": w.reads + 2 * (w.reads // 16)}
    return ("element reads", "region"), requests, op, None


WORKLOADS = {
    "ex61_calls": ex61_calls,
    "climate_halo": climate_halo,
    "array_writes": array_writes,
    "array_reads": array_reads,
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, default="ex61_calls")
    parser.add_argument("--src", default=str(ROOT / "src"))
    parser.add_argument("--ops", type=int, default=1500)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    sys.path.append(str(ROOT))  # benchmarks.macro, after the measured src
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    from repro.core.runtime import IntegratedRuntime

    rt = IntegratedRuntime(8)
    names, requests, op, derived = WORKLOADS[args.workload](rt, args.seed)
    # The mirrors advance one op at a time, so ops are numbered on.
    ops = itertools.count()
    for _ in range(args.ops // 5):  # warm-up: thread pool, caches
        op(next(ops))
    rt.machine.reset_traffic()
    rounds = []
    for _ in range(args.rounds):
        samples = [op(next(ops)) for _ in range(args.ops)]
        rounds.append(
            [statistics.median(col) / 1e3 for col in zip(*samples)]
        )
    traffic = rt.machine.traffic_snapshot()
    *phases, whole = min(rounds, key=lambda r: r[-1])
    print(f"src                {args.src}")
    print(f"workload           {args.workload} (seed {args.seed})")
    for name, us in zip(names, phases):
        line = f"{name:18s} {us:8.1f} us"
        if name in requests:
            n = requests[name]
            line += f"  {us / n:6.2f} us per request ({n})"
        print(line)
    print(f"{'op':18s} {whole:8.1f} us")
    n = args.ops * args.rounds
    wire = (traffic["messages"] / n, traffic["bytes"] / n)
    print(f"{'per op':18s} {wire[0]:g} msgs  {wire[1]:g} B")
    if derived is not None and wire != derived:
        sys.exit(f"per op {wire} is not the derived {derived} msgs, B")


if __name__ == "__main__":
    main()
