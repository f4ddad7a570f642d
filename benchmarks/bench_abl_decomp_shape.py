"""ABL-1 — ablation: decomposition shape vs halo traffic (§3.2.1.2,
Fig 3.6).

The thesis exposes grid-shape control (block/block(N)/"*") but does not
quantify it; this ablation does.  Claim: for a 5-point stencil, the halo
traffic of a decomposition follows from its grid alone — the cuts between
sections, each crossed by one strip each way — so square-ish grids
minimise it for square arrays, and 1-D strip decompositions pay
proportionally more as P grows.  The bytes a sweep routes are measured
against :func:`repro.spmd.costs.halo_phase`, and must equal it.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import report
from repro.calls import Local
from repro.core.runtime import IntegratedRuntime
from repro.spmd import costs
from repro.spmd.stencil import heat_steps

N = 64
GRIDS = ((4, 4), (16, 1), (1, 16), (8, 2))


def measure(rt, grid):
    """(messages, bytes) a 4-step ``heat_steps`` call routes, and those of
    one sweep: the 1-step/5-step marginal, which cancels whatever a call
    routes besides its sweeps."""
    procs = rt.all_processors()
    arr = rt.array(
        "double", (N, N), procs,
        [("block", grid[0]), ("block", grid[1])], borders=[1, 1, 1, 1],
    )
    arr.from_numpy(np.random.default_rng(0).uniform(0, 1, (N, N)))

    def wire(steps):
        rt.machine.reset_traffic()
        rt.call(
            procs, heat_steps, [grid[0], grid[1], steps, Local(arr.array_id)]
        )
        snapshot = rt.machine.traffic_snapshot()
        return snapshot["messages"], snapshot["bytes"]

    four = wire(4)
    (m5, b5), (m1, b1) = wire(5), wire(1)
    arr.free()
    return four, ((m5 - m1) / 4.0, (b5 - b1) / 4.0)


class TestAbl1DecompositionShape:
    def test_halo_bytes_by_grid_shape(self, benchmark):
        rt = IntegratedRuntime(16)
        rows = [("grid", "halo bytes/sweep (model)", "measured bytes/sweep",
                 "measured bytes (4 steps)", "msgs/sweep")]
        model = {}
        msgs_per_sweep = {}
        for grid in GRIDS:
            model[grid] = costs.halo_phase((N // grid[0], N // grid[1]), grid)
            (_, four_steps), (per_sweep, sweep_bytes) = measure(rt, grid)
            msgs_per_sweep[grid] = per_sweep
            rows.append(
                (grid, model[grid][1], sweep_bytes, four_steps, per_sweep)
            )
            # (4) the model is the wire: a sweep routes exactly its bytes,
            # a 4-step call four times them.
            assert sweep_bytes == model[grid][1]
            assert four_steps == 4 * model[grid][1]
        report("ABL-1 halo traffic by decomposition shape (64x64, P=16)", rows)
        nbytes = {grid: wire[1] for grid, wire in model.items()}
        assert nbytes == {
            (4, 4): 9600, (8, 2): 11264, (16, 1): 17280, (1, 16): 17760,
        }

        # shape claims:
        # (1) the square grid strictly beats both strip grids;
        assert nbytes[(4, 4)] < nbytes[(16, 1)]
        assert nbytes[(4, 4)] < nbytes[(1, 16)]
        # (2) the two strip orientations move the same interior cells on a
        # square array; (1, 16) pays only the corner relay — each of its
        # 30 column strips also carries the 2 halo rows the row stage
        # filled, 8 B a cell;
        assert nbytes[(1, 16)] - nbytes[(16, 1)] == 30 * 2 * 8
        # (3) the 8x2 grid sits between square and strip;
        assert nbytes[(4, 4)] < nbytes[(8, 2)] < nbytes[(16, 1)]
        # (5) message count is the *complementary* trade-off: one fused
        # strip per internal directed edge per sweep, so the strip grid
        # sends the fewest (largest) messages and the square grid the
        # most (smallest) — bytes and message count pull opposite ways.
        assert msgs_per_sweep[(16, 1)] < msgs_per_sweep[(8, 2)]
        assert msgs_per_sweep[(8, 2)] < msgs_per_sweep[(4, 4)]
        benchmark.extra_info.update(
            msgs_per_sweep={str(g): m for g, m in msgs_per_sweep.items()}
        )

        rt8 = IntegratedRuntime(16)
        procs = rt8.all_processors()
        arr = rt8.array(
            "double", (N, N), procs, [("block", 4), ("block", 4)],
            borders=[1, 1, 1, 1],
        )
        benchmark(
            lambda: rt8.call(
                procs, heat_steps, [4, 4, 1, Local(arr.array_id)]
            )
        )
        arr.free()
