"""The analytic cost model, validated against exact routed-message
counters — every formula must match what the machine actually moves."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrays import am_user, am_util
from repro.arrays.manager import get_array_manager
from repro.calls import Index, Local, distributed_call
from repro.core.darray import DistributedArray
from repro.pcn.composition import par
from repro.perf import HALO_BULK_KIND, get_perf_layer
from repro.spmd import collectives, costs
from repro.spmd.comm import GroupComm
from repro.spmd.context import SPMDContext
from repro.spmd.fft import (
    INVERSE,
    compute_roots,
    distributed_transpose,
    fft2,
    fft_reverse,
)
from repro.spmd.stencil import exchange_halos
from repro.status import Status
from repro.vp.fabric import TrafficMeter
from repro.vp.machine import Machine

SIZES = [1, 2, 3, 4, 7, 8]
ALGS = ["linear", "tree"]


def measure(p, body):
    """Run body(comm) on p concurrent ranks; return routed message count."""
    machine = Machine(p)
    comms = [GroupComm(machine, list(range(p)), r, "cost") for r in range(p)]
    machine.reset_traffic()
    par(*[lambda c=c: body(c) for c in comms])
    return machine.traffic_snapshot()["messages"]


class TestCollectiveFormulas:
    @pytest.mark.parametrize("p", SIZES)
    @pytest.mark.parametrize("alg", ALGS)
    def test_barrier(self, p, alg):
        measured = measure(
            p, lambda c: collectives.barrier(c, algorithm=alg)
        )
        assert measured == costs.barrier_cost(p, alg).messages

    @pytest.mark.parametrize("p", SIZES)
    @pytest.mark.parametrize("alg", ALGS)
    def test_bcast(self, p, alg):
        measured = measure(
            p,
            lambda c: collectives.bcast(
                c, "x" if c.rank == 0 else None, algorithm=alg
            ),
        )
        assert measured == costs.bcast_cost(p, alg).messages

    @pytest.mark.parametrize("p", SIZES)
    @pytest.mark.parametrize("alg", ALGS)
    def test_reduce(self, p, alg):
        measured = measure(
            p, lambda c: collectives.reduce(c, c.rank, op="sum", algorithm=alg)
        )
        assert measured == costs.reduce_cost(p, alg).messages

    @pytest.mark.parametrize("p", SIZES)
    @pytest.mark.parametrize("alg", ALGS)
    def test_allreduce(self, p, alg):
        measured = measure(
            p,
            lambda c: collectives.allreduce(
                c, c.rank, op="sum", algorithm=alg
            ),
        )
        assert measured == costs.allreduce_cost(p, alg).messages

    @pytest.mark.parametrize("p", SIZES)
    def test_gather_scatter(self, p):
        measured = measure(p, lambda c: collectives.gather(c, c.rank))
        assert measured == costs.gather_cost(p).messages
        measured = measure(
            p,
            lambda c: collectives.scatter(
                c, list(range(p)) if c.rank == 0 else None
            ),
        )
        assert measured == costs.scatter_cost(p).messages

    @pytest.mark.parametrize("p", SIZES)
    @pytest.mark.parametrize("alg", ALGS)
    def test_allgather(self, p, alg):
        measured = measure(
            p, lambda c: collectives.allgather(c, c.rank, algorithm=alg)
        )
        assert measured == costs.allgather_cost(p, alg).messages

    @pytest.mark.parametrize("p", SIZES)
    def test_alltoall(self, p):
        measured = measure(
            p, lambda c: collectives.alltoall(c, list(range(p)))
        )
        assert measured == costs.alltoall_cost(p).messages

    @pytest.mark.parametrize("p", SIZES)
    def test_scan(self, p):
        measured = measure(p, lambda c: collectives.scan(c, c.rank))
        assert measured == costs.scan_cost(p).messages


class TestKernelFormulas:
    @pytest.mark.parametrize("grid", [(1, 1), (2, 2), (4, 1), (1, 4), (4, 2)])
    def test_halo_exchange(self, grid):
        gr, gc = grid
        p = gr * gc
        machine = Machine(p)
        contexts = [
            SPMDContext(machine, list(range(p)), r, "halo") for r in range(p)
        ]
        machine.reset_traffic()

        def body(ctx):
            full = np.zeros((4, 4))
            exchange_halos(ctx, full, gr, gc)

        par(*[lambda c=c: body(c) for c in contexts])
        snapshot = machine.traffic_snapshot()
        assert (snapshot["messages"], snapshot["bytes"]) == costs.halo_phase(
            (2, 2), grid, header=0
        )

    @pytest.mark.parametrize("p,n", [(1, 8), (2, 16), (4, 16), (8, 32)])
    def test_fft_exchange(self, p, n):
        machine = Machine(p)
        am_util.load_all(machine)
        procs = am_util.node_array(0, 1, p)
        data, _ = am_user.create_array(
            machine, "double", (2 * n,), procs, ["block"]
        )
        eps, _ = am_user.create_array(
            machine, "double", (p, 2 * n), procs, ["block", "*"]
        )
        distributed_call(
            machine, procs,
            lambda ctx, nn, sec: compute_roots(ctx, nn, sec),
            [n, Local(eps)],
        )
        machine.reset_traffic()
        distributed_call(
            machine, procs, fft_reverse,
            [procs, p, Index(), n, INVERSE, Local(eps), Local(data)],
        )
        assert (
            machine.traffic_snapshot()["messages"]
            == costs.fft_exchange_cost(n, p).messages
        )

    @pytest.mark.parametrize("p,n", [(2, 8), (4, 8), (4, 16), (8, 16)])
    def test_fft2(self, p, n):
        machine = Machine(p)
        am_util.load_all(machine)
        procs = am_util.node_array(0, 1, p)
        aid, _ = am_user.create_array(
            machine, "double", (n, 2 * n), procs, [("block", p), "*"]
        )
        machine.reset_traffic()
        result = distributed_call(
            machine, procs, fft2, [n, INVERSE, Local(aid)]
        )
        assert result.status is Status.OK
        assert (
            machine.traffic_snapshot()["messages"]
            == costs.fft2_cost(n, p).messages
        )

    @pytest.mark.parametrize("p", [2, 4])
    def test_transpose(self, p):
        n = 4 * p
        machine = Machine(p)
        contexts = [
            SPMDContext(machine, list(range(p)), r, "tr") for r in range(p)
        ]
        machine.reset_traffic()

        def body(ctx):
            block = np.zeros((n // p, n), dtype=complex)
            distributed_transpose(ctx, block)

        par(*[lambda c=c: body(c) for c in contexts])
        assert (
            machine.traffic_snapshot()["messages"]
            == costs.transpose_cost(p).messages
        )


SIDES = {1: ("west", "east"), 2: ("north", "south", "west", "east")}
_phases = itertools.count()


@pytest.fixture(scope="module")
def machine16():
    machine = Machine(16, default_recv_timeout=10)
    am_util.load_all(machine)
    return machine


def _routed(machine, thunks) -> dict:
    """Traffic by kind while ``thunks`` run as concurrent processes."""
    meter = TrafficMeter().install(machine)
    try:
        par(*thunks)
    finally:
        meter.uninstall()
    return meter.snapshot()["by_kind"]


@settings(max_examples=100, deadline=None)
@given(
    grid=st.one_of(
        st.tuples(st.integers(1, 8)),
        st.tuples(st.integers(1, 4), st.integers(1, 4)),
    ),
    extents=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    pad=st.integers(1, 3),
    data=st.data(),
)
def test_property_one_phase_routes_the_model(
    machine16, grid, extents, pad, data
):
    """One planned phase of any rank-1 or rank-2 block layout, at any depth
    its plan allows and on any sides, routes exactly the model's
    ``halo_bulk`` messages and bytes; one per-sweep ``exchange_halos`` of
    the same rank-2 blocks routes exactly its header-free ones."""
    machine = machine16
    rank = len(grid)
    local = extents[:rank]
    procs = list(range(math.prod(grid)))
    arr = DistributedArray.create(
        machine, "double", tuple(n * g for n, g in zip(local, grid)), procs,
        [("block", g) for g in grid], borders=[pad] * (2 * rank),
    )
    try:
        plan = arr.halo_plan()
        k = data.draw(st.integers(1, plan.depth), label="k")
        sides = data.draw(
            st.none() | st.frozensets(st.sampled_from(SIDES[rank])),
            label="sides",
        )
        manager = get_array_manager(machine)
        registry = get_perf_layer(machine).plans
        token = ("model", next(_phases))
        exchanges = []
        for section, owner in enumerate(
            manager.durability_state(arr.array_id).processors
        ):
            record = manager._lookup(machine.processor(owner), arr.array_id)
            exchanges.append(plan.begin(
                registry, record, record.section.full(), section, k, token,
                owner, sides,
            ))
        messages, nbytes = costs.halo_phase(local, grid, k, sides)
        routed = _routed(machine, [ex.complete for ex in exchanges])
        assert routed == ({HALO_BULK_KIND: (messages, nbytes)}
                          if messages else {})
    finally:
        arr.free()
    if rank == 2:
        group = ("model", next(_phases))
        frames = [np.zeros((local[0] + 2, local[1] + 2)) for _ in procs]
        routed = _routed(machine, [
            lambda r=r: exchange_halos(
                SPMDContext(machine, procs, r, group), frames[r], *grid
            )
            for r in procs
        ])
        messages, nbytes = costs.halo_phase(local, grid, header=0)
        assert routed == ({"user": (messages, nbytes)} if messages else {})


class TestLatencyModel:
    def test_rounds_drive_latency(self):
        linear = costs.bcast_cost(8, "linear")
        tree = costs.bcast_cost(8, "tree")
        assert linear.messages == tree.messages  # same volume...
        assert tree.rounds < linear.rounds  # ...shorter critical path
        assert tree.latency(alpha=1.0) < linear.latency(alpha=1.0)

    def test_latency_includes_bandwidth_term(self):
        cost = costs.Cost(messages=4, rounds=2)
        assert cost.latency(alpha=1.0, per_message_payload=100, beta=0.01) == (
            2 * (1.0 + 1.0)
        )

    def test_singleton_groups_free(self):
        for fn in (
            costs.barrier_cost,
            costs.bcast_cost,
            costs.reduce_cost,
            costs.allreduce_cost,
            costs.allgather_cost,
        ):
            assert fn(1).messages == 0
        assert costs.alltoall_cost(1).messages == 0
        assert costs.scan_cost(1).messages == 0
