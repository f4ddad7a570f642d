"""Untraced phase split of one EX-6.1 operation: create x2, call, free x2.

    python3 scripts/ex61_phases.py [--src DIR] [--ops N] [--rounds R]

The macro benchmark times the whole op; its tracer splits it but sits on
every hop (an interceptor, wrapped ``route`` and ``DefVar.read``), so what
it says about the array lifecycle is an upper bound.  This script runs the
same op (``apps/innerproduct.run``: two vectors over ``IntegratedRuntime(8)``,
one distributed call, both freed) with nothing installed, pinned to one CPU
like the benchmark's children, and reads the clock at the three phase
boundaries only.  ``--src`` points at the ``src`` directory of another
checkout (the parent commit, say), so the same file measures both sides.

Printed per phase: the median over all ops of the quietest round (the one
with the smallest whole-op median), in microseconds — the host's speed
wanders, and the quietest round is the one least disturbed.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time
from pathlib import Path


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--src", default=str(Path(__file__).resolve().parent.parent / "src")
    )
    parser.add_argument("--ops", type=int, default=1500)
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    from repro.apps.innerproduct import expected_inner_product, test_iprdv
    from repro.calls.params import Index, Reduce
    from repro.core.runtime import IntegratedRuntime

    rt = IntegratedRuntime(8)
    procs = rt.all_processors()
    p, local_m = rt.num_nodes, 4
    m = p * local_m
    expected = expected_inner_product(m)
    clock = time.perf_counter_ns

    def op() -> tuple:
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

    for _ in range(args.ops // 5):  # warm-up: thread pool, caches
        op()
    rounds = []
    for _ in range(args.rounds):
        samples = [op() for _ in range(args.ops)]
        rounds.append(
            [statistics.median(col) / 1e3 for col in zip(*samples)]
        )
    create, call, free, whole = min(rounds, key=lambda r: r[3])
    print(f"src         {args.src}")
    print(f"create x2   {create:8.1f} us")
    print(f"call        {call:8.1f} us")
    print(f"free x2     {free:8.1f} us")
    print(f"lifecycle   {create + free:8.1f} us  ({(create + free) / whole:.0%} of the op)")
    print(f"op          {whole:8.1f} us")


if __name__ == "__main__":
    main()
