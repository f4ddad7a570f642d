"""Communication planning: fused deep-halo exchange vs per-sweep strips.

Claim quantified (docs/performance.md, "Communication planning"): on a
2x2 ``(block, block)`` grid the planned stencil path — one fused
``halo_bulk`` message per neighbour per exchange *phase*, with depth-4
borders amortising one phase over four sweeps — ships **at least 3x
fewer messages per sweep** than the per-sweep reference exchange; the
fig37-style bordered sweep's median wall-clock ratio is reported, not
gated (it reads 1.2-1.3x and wanders with the host: ROADMAP 6(e)).  The
climate interface exchange rides the same fusion: one targeted region
write per owning processor instead of one message per interface
element.

The reference is reached by input, as in the tests: the same kernel
handed the frame view of its section, which no record holds, exchanges
every sweep through ``exchange_halos``.

Message counts come from the exact routed counters (GIL-independent);
wall-clock from explicit ``perf_counter`` rounds, planned and per-sweep
interleaved so load drift cancels.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from benchmarks.conftest import report
from repro.calls.params import Local
from repro.perf import coalescing_disabled, get_perf_layer
from repro.spmd.stencil import frame_view, heat_steps

N = 16            # global grid: N x N doubles
GRID = (2, 2)     # the fig37 decomposition under test
DEPTH = 4         # planned border depth: one exchange per 4 sweeps
SWEEPS = 12       # per timed call: 3 planned phases


def per_sweep_heat_steps(ctx, grid_rows, grid_cols, steps, section):
    """The per-sweep reference: ``heat_steps`` on the frame view."""
    heat_steps(ctx, grid_rows, grid_cols, steps, frame_view(section))


def make_field(rt, borders):
    procs = rt.processors(0, GRID[0] * GRID[1])
    arr = rt.array(
        "double", (N, N), processors=procs,
        distrib=[("block", GRID[0]), ("block", GRID[1])],
        borders=[borders] * 4,
    )
    rng = np.random.default_rng(37)
    arr.from_numpy(rng.uniform(0, 100, (N, N)))
    return arr, list(procs)


def sweep_call(rt, arr, procs, sweeps, planned=True):
    """One call of ``sweeps`` sweeps, and a check that it ran the path it
    was asked for: only the planned one sends ``halo_bulk`` strips."""
    registry = get_perf_layer(rt.machine).plans
    strips = registry.strips_sent
    result = rt.call(
        procs, heat_steps if planned else per_sweep_heat_steps,
        [GRID[0], GRID[1], sweeps, Local(arr.array_id)],
    )
    assert result.status.name == "OK"
    assert (registry.strips_sent > strips) == planned


def messages_for(machine, body):
    machine.reset_traffic()
    body()
    return machine.traffic_snapshot()["messages"]


def marginal_messages_per_sweep(rt, arr, procs, planned):
    """Messages attributable to one extra sweep: the count difference
    between a 1-sweep and a (1+8)-sweep call over 8, which cancels the
    per-call scaffolding (spawn/collect/allreduce) both paths share."""
    machine = rt.machine

    def run(sweeps):
        return messages_for(
            machine, lambda: sweep_call(rt, arr, procs, sweeps, planned)
        )

    run(1)  # warm the plan cache / code paths
    short = run(1)
    long = run(1 + 8)
    return (long - short) / 8.0


class TestCommPlanBench:
    def test_message_fusion_per_sweep(self, benchmark, rt8):
        planned_arr, procs = make_field(rt8, borders=DEPTH)
        unplanned_arr, _ = make_field(rt8, borders=1)

        planned_rate = marginal_messages_per_sweep(
            rt8, planned_arr, procs, planned=True
        )
        unplanned_rate = marginal_messages_per_sweep(
            rt8, unplanned_arr, procs, planned=False
        )

        report(
            f"halo messages per sweep ({N}x{N} on {GRID[0]}x{GRID[1]})",
            [
                ("path", "msgs/sweep"),
                (f"planned (depth-{DEPTH} borders)", planned_rate),
                ("unplanned (per-sweep strips)", unplanned_rate),
            ],
        )
        benchmark.extra_info.update(
            planned_messages_per_sweep=planned_rate,
            unplanned_messages_per_sweep=unplanned_rate,
            fusion_factor=round(unplanned_rate / planned_rate, 2),
        )

        # Acceptance: >= 3x fewer messages per sweep.  With depth-4
        # borders one 8-strip phase covers 4 sweeps (2 msgs/sweep) vs 8
        # point-to-point strips every sweep unplanned.
        assert unplanned_rate >= 3 * planned_rate

        benchmark(lambda: sweep_call(rt8, planned_arr, procs, SWEEPS))
        planned_arr.free()
        unplanned_arr.free()

    def test_sweep_latency(self, benchmark, rt8):
        planned_arr, procs = make_field(rt8, borders=DEPTH)
        unplanned_arr, _ = make_field(rt8, borders=1)

        def planned_body():
            sweep_call(rt8, planned_arr, procs, SWEEPS)

        def unplanned_body():
            sweep_call(rt8, unplanned_arr, procs, SWEEPS, planned=False)

        planned_body(), unplanned_body()  # warm-up
        planned_t, unplanned_t, ratios = [], [], []
        for _ in range(15):
            t0 = time.perf_counter()
            unplanned_body()
            u = time.perf_counter() - t0
            t0 = time.perf_counter()
            planned_body()
            p = time.perf_counter() - t0
            unplanned_t.append(u)
            planned_t.append(p)
            ratios.append(u / p)
        p_med = statistics.median(planned_t)
        u_med = statistics.median(unplanned_t)
        speedup = statistics.median(ratios)

        report(
            f"{SWEEPS}-sweep call wall-clock (median of 15 rounds)",
            [
                ("path", "seconds"),
                (f"planned (depth-{DEPTH})", f"{p_med:.5f}"),
                ("unplanned", f"{u_med:.5f}"),
                ("median speedup", f"{speedup:.2f}x"),
            ],
        )
        benchmark.extra_info.update(
            planned_median_seconds=p_med,
            unplanned_median_seconds=u_med,
            median_speedup=round(speedup, 2),
        )

        # Reported, not gated: the deterministic claim is the message
        # count above; a wall-clock ratio this close to its line flaked
        # at parent and change alike (ROADMAP 6(e)).

        benchmark(planned_body)
        planned_arr.free()
        unplanned_arr.free()

    def test_climate_interface_exchange_messages(self, benchmark, rt8):
        """The TP-level interface exchange: targeted per-owner region
        writes vs a per-element write loop for the same cells."""
        from repro.apps.climate import ClimateSimulation, _exchange_interface

        sim = ClimateSimulation(rt8, shape=(8, N))
        machine = rt8.machine
        width = N

        exchange_msgs = messages_for(
            machine,
            lambda: _exchange_interface(
                rt8, sim.ocean, sim.atmosphere, sim.coupling
            ),
        )

        last_row = sim.atmosphere.array.dims[0] - 1

        def element_writes():
            with coalescing_disabled(machine):
                for c in range(width):
                    sim.ocean.array[0, c] = 1.0
                    sim.atmosphere.array[last_row, c] = 1.0

        element_msgs = messages_for(machine, element_writes)

        report(
            f"climate interface exchange ({width}-wide interface)",
            [
                ("path", "messages"),
                ("fused exchange (reads + targeted writes)", exchange_msgs),
                ("per-element writes (writes alone)", element_msgs),
            ],
        )
        benchmark.extra_info.update(
            exchange_messages=exchange_msgs,
            element_write_messages=element_msgs,
        )

        # The whole exchange — two row reads *and* two fused writes —
        # costs at least 3x fewer messages than element writes alone.
        assert element_msgs >= 3 * exchange_msgs

        benchmark(
            lambda: _exchange_interface(
                rt8, sim.ocean, sim.atmosphere, sim.coupling
            )
        )
        sim.free()
