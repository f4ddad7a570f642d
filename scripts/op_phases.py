"""Untraced phase split of one op of a gated macro workload.

    python3 scripts/op_phases.py [--workload W] [--src DIR] [--ops N]
        [--rounds R] [--seed S] [--procs P]

``W`` and its phases:

``ex61_calls`` (default)  create x2 / call / free x2 — two vectors over
                          ``IntegratedRuntime(P)``, one distributed call,
                          both freed (``apps/innerproduct.run``); P is
                          ``--procs``, 8 by default
``climate_halo``          component step / interface exchange /
                          to_numpy x2 — one FIG-2.1 coupled step
                          (``ClimateSimulation.run(1)``), split by the
                          ``CoupledResult`` it returns
``array_writes``          element writes / region / read-backs
``array_reads``           element reads / region

The macro benchmark times the whole op; its tracer splits it but sits on
every hop (an interceptor, wrapped ``route`` and ``DefVar.read``), so what
it says about a layer is an upper bound.  This script runs the same op
with nothing installed, pinned to one CPU like the benchmark's children,
and reads the clock at the phase boundaries only.  Every workload but
``ex61_calls`` is the benchmark's own class (``benchmarks/macro/
workloads.py``), built from ``--seed``, and every op is checked against
its NumPy mirror outside the clock.  ``array_writes``' op is the
benchmark's: the element writes of the sections its region touches land
inside the region write, carried by the shares; the other sections' stay
queued until a request for their section (a read-back, a later op's
region) or the coalescer's threshold lands them.  ``--src`` points at the
``src`` directory of another checkout (the parent commit, say), so the
same file measures both sides.

Printed per phase: the median over all ops of the quietest round (the one
with the smallest whole-op median), in microseconds — the host's speed
wanders, and the quietest round is the one least disturbed — and, for a
phase of element requests, that median per request beside the Python
frames of the measured package one request of the phase enters.  The
frames are counted once, on one warm-up op, outside the clock, with
``sys.setprofile`` as ``tests/perf/test_request_path.py`` counts them;
they do not wander with the host.  ``array_writes``' op is counted after
a flush of the array, so that none of its writes ships a threshold batch
and the count does not depend on the seed.  Then the routed messages and bytes an
op, which must be the figure derived for the workload, or the script
exits non-zero: for ``ex61_calls`` 6(P - 1) one-word messages (a create
or a free is one request from processor 0 to each of the other P - 1, and
the call's ``allreduce`` a binomial reduce and bcast, P - 1 each), for
``climate_halo`` the one :func:`op_wire` derives from
(grid, border depth, sweeps) with the halo model of the measured tree
(``repro.spmd.costs.halo_phase``) — a tree older than that model cannot
run this workload — and for ``array_writes`` and ``array_reads`` the one
:func:`element_wire` derives from the inputs of every op so far.  The
derivation has each request for a section carry the section's queued
writes and a region order only the sections it touches, so a tree from
before either reads more messages on these two and exits non-zero after
printing its timings.
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

# What the task level routes in one climate op on 8 processors, 4 a
# domain: the atmosphere's interface row read from processor 7 (the
# ocean's is on processor 0, where the top-level thread's requests run;
# both rows are written in place), and 3 + 4 owners asked by the two
# ``to_numpy``.
TASK_MSGS = 8


def entered(fn, *args) -> tuple:
    """(frames of the measured package that ``fn(*args)`` enters, what it
    returned)."""
    import repro

    package = os.path.dirname(repro.__file__) + os.sep
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code.co_filename.startswith(package):
            count += 1

    sys.setprofile(profile)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
    return count, result


def op_wire(local_dims: tuple, grid: tuple, depth: int, sweeps: int) -> tuple:
    """(messages, bytes) one coupled step of two domains of ``local_dims``
    sections on ``grid`` routes: a call is ``ceil(sweeps / depth)`` phases,
    the last as shallow as the sweeps left; the task level adds TASK_MSGS
    one-word requests."""
    from repro.spmd.costs import halo_phase

    msgs, nbytes = TASK_MSGS, 8 * TASK_MSGS
    while sweeps > 0:
        strips, strip_bytes = halo_phase(local_dims, grid, min(depth, sweeps))
        msgs += 2 * strips
        nbytes += 2 * strip_bytes
        sweeps -= depth
    return msgs, nbytes


# Where the task level's element and region requests are made: processor
# 0, home of every request of a top-level thread.
HOME = 0


def element_wire(arr, replication: int, steps, queued: dict) -> tuple:
    """(messages, bytes) that ``steps`` — ``("write", cell)``,
    ``("read", cell)``, ``("write_region", bounds)``, ``("read_region",
    bounds)`` or ``("flush", None)`` on ``arr``, made on HOME — route.

    A write is queued on HOME for its section, in ``queued`` (section ->
    writes), which the caller keeps from op to op; the write that brings a
    queue to the coalescer's ``flush_ops`` sends it by the route, 16 and 8
    a write, as a flush sends every queue.  A
    request for a section (an element read, a region's share) carries the
    section's queue: 8 bytes, plus 16 and 8 a write when it carries a
    batch.  A region leaves the queues of the sections it does not touch
    queued.  Nothing made on HOME for a section HOME holds is a message.
    Every commit sends ``replication`` replica updates of 8 bytes a cell
    it applied.
    """
    from repro.perf import get_perf_layer

    layout, owners = arr.layout, arr.processors
    flush_ops = get_perf_layer(arr.machine).coalescer.flush_ops
    wire = [0, 0]

    def send(nbytes: int, times: int = 1) -> None:
        wire[0] += times
        wire[1] += times * nbytes

    def commit(cells: int) -> None:
        if cells:
            send(8 * cells, replication)

    def request(section: int, cells: int = 0) -> None:
        ops = queued.pop(section, 0)
        commit(ops + cells)
        if owners[section] != HOME:
            send(8 + (16 + 8 * ops if ops else 0))

    def route(section: int) -> None:
        ops = queued.pop(section)
        commit(ops)
        if owners[section] != HOME:
            send(16 + 8 * ops)

    for step, arg in steps:
        if step == "flush":
            for section in sorted(queued):
                route(section)
        elif step == "write":
            section = layout.locate(arg)[0]
            queued[section] = queued.get(section, 0) + 1
            if queued[section] >= flush_ops:
                route(section)
        elif step == "read":
            request(layout.locate(arg)[0])
        else:
            for section, local, _out in layout.region_sections(arg):
                cells = 1
                for axis in local:
                    cells *= axis.stop - axis.start
                request(section, cells if step == "write_region" else 0)
    return tuple(wire)


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

    wire = (6 * (p - 1), 48 * (p - 1))
    return ("create x2", "call", "free x2"), {}, op, lambda i: wire, None


def climate_halo(rt, seed: int) -> tuple:
    import numpy as np
    from benchmarks.macro.workloads import ClimateHalo

    w = ClimateHalo(rt, np.random.default_rng(seed))
    layout = w.sim.ocean.array.layout

    def op(i: int) -> tuple:
        t0 = clock()
        run = w.run_op(i)
        whole = clock() - t0
        assert w.ok(i, run)
        result = run.coupled_result
        step = result.step_wall_times[0] * 1e9
        exchange = result.exchange_wall_times[0] * 1e9
        return step, exchange, whole - result.wall_time * 1e9, whole

    wire = op_wire(layout.local_dims, layout.grid, layout.borders[0], w.sweeps)
    names = ("component step", "interface exchange", "to_numpy x2")
    return names, {}, op, lambda i: wire, None


def array_writes(rt, seed: int) -> tuple:
    import numpy as np
    from benchmarks.macro.workloads import POOL, ArrayWrites

    w = ArrayWrites(rt, np.random.default_rng(seed))
    arr = w.arr

    def element_writes(i: int) -> None:
        for row, col, value in w.inputs[i % POOL][0]:
            arr[row, col] = value

    def region(i: int) -> None:
        _writes, (r0, c0), block, _readbacks = w.inputs[i % POOL]
        arr.write_region([(r0, r0 + 16), (c0, c0 + 16)], block)

    def read_backs(i: int) -> list:
        return [arr[row, col] for row, col in w.inputs[i % POOL][3]]

    def op(i: int) -> tuple:
        t0 = clock()
        element_writes(i)
        t1 = clock()
        region(i)
        t2 = clock()
        values = read_backs(i)
        t3 = clock()
        assert w.ok(i, values)
        return t1 - t0, t2 - t1, t3 - t2, t3 - t0

    drained = set()  # the op whose frames are counted, on empty queues

    def frames(i: int) -> dict:
        # With every queue empty, none of the op's writes (at most 8 a
        # section) ships a threshold batch: the rung is the same for any
        # seed and any op before it.
        arr.flush()
        drained.add(i)
        writes, _ = entered(element_writes, i)
        region(i)
        backs, values = entered(read_backs, i)
        assert w.ok(i, values)
        return {"element writes": writes, "read-backs": backs}

    queued: dict = {}  # section -> writes queued, from op to op

    def wire(i: int) -> tuple:
        writes, (r0, c0), _block, readbacks = w.inputs[i % POOL]
        steps = [("flush", None)] if i in drained else []
        steps += [("write", (row, col)) for row, col, _value in writes]
        steps.append(("write_region", ((r0, r0 + 16), (c0, c0 + 16))))
        steps += [("read", cell) for cell in readbacks]
        return element_wire(arr, w.replication, steps, queued)

    requests = {
        "element writes": sum(w.per_section),
        "read-backs": len(w.readback_sections),
    }
    names = ("element writes", "region", "read-backs")
    return names, requests, op, wire, frames


def array_reads(rt, seed: int) -> tuple:
    import numpy as np
    from benchmarks.macro.workloads import POOL, ArrayReads

    w = ArrayReads(rt, np.random.default_rng(seed))
    arr = w.arr

    def element_reads(i: int) -> list:
        cells, values, _corner = w.inputs[i % POOL]
        got = []
        for k, cell in enumerate(cells):
            got.append(arr[cell])
            if k % 16 == 15:
                arr[cell] = values[k // 16]
                got.append(arr[cell])
        return got

    def region(i: int) -> object:
        r0, c0 = w.inputs[i % POOL][2]
        return arr.read_region([(r0, r0 + 32), (c0, c0 + 32)])

    def op(i: int) -> tuple:
        t0 = clock()
        got = element_reads(i)
        t1 = clock()
        data = region(i)
        t2 = clock()
        assert w.ok(i, (got, data))
        return t1 - t0, t2 - t1, t2 - t0

    def frames(i: int) -> dict:
        count, got = entered(element_reads, i)
        assert w.ok(i, (got, region(i)))
        return {"element reads": count}

    queued: dict = {}  # section -> writes queued, from op to op

    def wire(i: int) -> tuple:
        cells, _values, (r0, c0) = w.inputs[i % POOL]
        steps = []
        for k, cell in enumerate(cells):
            steps.append(("read", cell))
            if k % 16 == 15:
                steps += [("write", cell), ("read", cell)]
        steps.append(("read_region", ((r0, r0 + 32), (c0, c0 + 32))))
        return element_wire(arr, w.replication, steps, queued)

    # Every 16th read is followed by a write and a read-back of its cell.
    requests = {"element reads": w.reads + 2 * (w.reads // 16)}
    return ("element reads", "region"), requests, op, wire, frames


WORKLOADS = {
    "ex61_calls": ex61_calls,
    "climate_halo": climate_halo,
    "array_writes": array_writes,
    "array_reads": array_reads,
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, default="ex61_calls")
    parser.add_argument(
        "--src", default=str(ROOT / "src"),
        help="src directory of the tree to measure; climate_halo needs its "
        "halo model (repro.spmd.costs.halo_phase), which older trees lack",
    )
    parser.add_argument("--ops", type=int, default=1500)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--procs", type=int,
        help="processors of ex61_calls (default 8); the other workloads are "
        "the benchmark's 8-processor classes",
    )
    args = parser.parse_args()
    if args.procs is not None and args.workload != "ex61_calls":
        parser.error(f"--procs: {args.workload} runs on 8 processors only")
    sys.path.insert(0, args.src)
    sys.path.append(str(ROOT))  # benchmarks.macro, after the measured src
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    from repro.core.runtime import IntegratedRuntime

    rt = IntegratedRuntime(args.procs or 8)
    names, requests, op, derived, frames = WORKLOADS[args.workload](
        rt, args.seed
    )
    # The mirrors advance one op at a time, so ops are numbered on.
    ops = itertools.count()
    for _ in range(args.ops // 5):  # warm-up: thread pool, caches
        op(next(ops))
    counted = frames(next(ops)) if frames is not None else {}
    rt.machine.reset_traffic()
    rounds, measured = [], []
    for _ in range(args.rounds):
        samples = []
        for _ in range(args.ops):
            measured.append(next(ops))
            samples.append(op(measured[-1]))
        rounds.append(
            [statistics.median(col) / 1e3 for col in zip(*samples)]
        )
    traffic = rt.machine.traffic_snapshot()
    *phases, whole = min(rounds, key=lambda r: r[-1])
    print(f"src                {args.src}")
    print(f"workload           {args.workload} (seed {args.seed}, "
          f"{rt.num_nodes} processors)")
    for name, us in zip(names, phases):
        line = f"{name:18s} {us:8.1f} us"
        if name in requests:
            n = requests[name]
            line += f"  {us / n:6.2f} us per request ({n})"
            line += f"  {counted[name] / n:5.1f} frames per request"
        print(line)
    print(f"{'op':18s} {whole:8.1f} us")
    n = len(measured)
    wire = (traffic["messages"] / n, traffic["bytes"] / n)
    print(f"{'per op':18s} {wire[0]:g} msgs  {wire[1]:g} B")
    if derived is not None:
        # Derived op by op from the first, warm-up included: a queue an
        # op leaves behind is landed by a later one.
        wires = [derived(i) for i in range(measured[-1] + 1)][measured[0]:]
        expected = tuple(sum(column) / n for column in zip(*wires))
        if wire != expected:
            sys.exit(f"per op {wire} is not the derived {expected} msgs, B")


if __name__ == "__main__":
    main()
