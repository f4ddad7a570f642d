"""Border-exchange stencil kernels (overlap areas, §3.2.1.3)."""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrays import am_user, am_util
from repro.arrays.layout import ROW_MAJOR, ArrayLayout
from repro.arrays.local_section import LocalSection
from repro.arrays.manager import get_array_manager
from repro.arrays.record import ArrayID
from repro.calls import Local, Reduce, distributed_call
from repro.core.darray import DistributedArray
from repro.pcn.composition import par
from repro.perf import get_perf_layer
from repro.perf.commplan import compile_halo_plan
from repro.spmd.context import SPMDContext
from repro.spmd.stencil import (
    _PHASE_REGIONS,
    _SweepRegion,
    _extended,
    _sweep0_split,
    border_query,
    frame_view,
    grid_coords,
    heat_steps,
    jacobi_sweep,
)
from repro.status import Status
from repro.vp.machine import Machine


@pytest.fixture
def m4():
    machine = Machine(4)
    am_util.load_all(machine)
    return machine


def make_field(machine, shape, grid, initial):
    procs = am_util.node_array(0, 1, grid[0] * grid[1])
    aid, st = am_user.create_array(
        machine, "double", shape, procs,
        [("block", grid[0]), ("block", grid[1])],
        border_info=("foreign_borders", border_query, 1)
        if callable(border_query)
        else [1, 1, 1, 1],
    )
    assert st is Status.OK
    whole = [(0, shape[0]), (0, shape[1])]
    assert am_user.write_region(machine, aid, whole, initial) is Status.OK
    return aid, procs


def gather(machine, aid, shape, grid):
    out, status = am_user.read_region(
        machine, aid, [(0, shape[0]), (0, shape[1])]
    )
    assert status is Status.OK
    return out


def serial_reference(field, steps):
    """Single-domain Jacobi with zero Dirichlet halo (the border cells
    start and remain 0 on physical edges)."""
    full = np.zeros((field.shape[0] + 2, field.shape[1] + 2))
    full[1:-1, 1:-1] = field
    for _ in range(steps):
        full[1:-1, 1:-1] = jacobi_sweep(full)
    return full[1:-1, 1:-1]


class TestHelpers:
    def test_grid_coords(self):
        assert grid_coords(0, 2) == (0, 0)
        assert grid_coords(3, 2) == (1, 1)
        assert grid_coords(5, 3) == (1, 2)

    def test_border_query_protocol(self):
        assert border_query(1, 2) == (1, 1, 1, 1)
        assert border_query(9, 1) == (1, 1)

    def test_jacobi_sweep_shape(self):
        full = np.zeros((5, 6))
        assert jacobi_sweep(full).shape == (3, 4)


class TestSweepSplit:
    @settings(max_examples=120, deadline=None)
    @given(
        grid=st.tuples(st.sampled_from([1, 2, 3]), st.sampled_from([1, 2, 3])),
        local=st.tuples(st.integers(1, 6), st.integers(1, 6)),
        pad=st.integers(1, 3),
        data=st.data(),
    )
    def test_inner_and_frame_are_the_sweep_minus_what_it_receives(
        self, grid, local, pad, data
    ):
        """For every neighbour pattern (grid extents 1 / 2 / 3 give a
        section no, one or both neighbours along an axis) and every depth
        the plan supports: the inner block and the frame bands tile the
        sweep-0 region exactly once; computing them piecewise equals one
        ``_SweepRegion`` over the region bit for bit; and the inner
        block's stencil reads no cell in any destination slice of what the
        section receives in that phase — which is what lets it run before
        ``complete()``."""
        h, w = local
        layout = ArrayLayout(
            dims=(grid[0] * h, grid[1] * w), grid=grid,
            borders=(pad,) * 4, indexing=ROW_MAJOR, grid_indexing=ROW_MAJOR,
        )
        plan = compile_halo_plan(ArrayID(0, 3), layout)
        k = data.draw(st.integers(1, plan.depth))
        shape = (h + 2 * pad, w + 2 * pad)
        full = np.random.default_rng(h * 7 + w).uniform(0, 100, shape)
        for section in range(layout.num_sections):
            sides = plan.schedule(section, k).sides
            region = _extended(pad, h, w, k - 1, sides)
            inner, frame = _sweep0_split(pad, h, w, k - 1, sides)
            pieces = frame if inner is None else [inner] + frame
            assert len(frame) == (len(sides) if inner is not None else 1)

            cover = np.zeros(shape, dtype=int)
            whole = np.full(shape, np.nan)
            piecewise = np.full(shape, np.nan)
            r0, r1, c0, c1 = region
            whole[r0:r1, c0:c1] = _SweepRegion(full, *region).sweep()
            for a, b, c, e in pieces:
                assert a < b and c < e
                cover[a:b, c:e] += 1
                piecewise[a:b, c:e] = _SweepRegion(full, a, b, c, e).sweep()
            expected = np.zeros(shape, dtype=int)
            expected[r0:r1, c0:c1] = 1
            assert np.array_equal(cover, expected)
            assert np.array_equal(whole, piecewise, equal_nan=True)

            if inner is None:
                continue
            received = np.zeros(shape, dtype=bool)
            for t in plan.transfers(k):
                if t.edge.dest_section == section:
                    received[t.dest_slices] = True
            a, b, c, e = inner
            for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                assert not received[a + dr:b + dr, c + dc:e + dc].any()
            # ... and it is maximal: every frame band touches one.
            for a, b, c, e in frame:
                assert any(
                    received[a + dr:b + dr, c + dc:e + dc].any()
                    for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1))
                )


def per_sweep(ctx, grid_rows, grid_cols, steps, section, delta_out=None):
    """The per-sweep reference, reached by input: the kernel handed the
    section's frame view, which no record holds."""
    heat_steps(
        ctx, grid_rows, grid_cols, steps, frame_view(section), delta_out
    )


class TestKeptSweepRegions:
    """The planned path sweeps regions kept with their section: each call
    after the first finds the ones an earlier call made, whatever depth
    its phases run at."""

    @staticmethod
    def pair(machine, grid, depth, seed):
        """Two arrays bordered ``depth`` deep holding the same field."""
        initial = np.random.default_rng(seed).uniform(0, 100, (8, 8))
        arrays = []
        for _ in range(2):
            arr = DistributedArray.create(
                machine, "double", (8, 8), list(range(4)),
                [("block", g) for g in grid], borders=[depth] * 4,
            )
            arr.from_numpy(initial)
            arrays.append(arr)
        return arrays

    @staticmethod
    def run(machine, arr, grid, steps, program, delta):
        parameters = [grid[0], grid[1], steps, Local(arr.array_id)]
        if delta:
            parameters.append(Reduce("double", 1, "max"))
        res = distributed_call(
            machine, list(arr.processors), program, parameters
        )
        assert res.status is Status.OK
        return res.reductions[0] if delta else None

    def run_both(self, machine, planned, reference, grid, steps, delta):
        d_planned = self.run(machine, planned, grid, steps, heat_steps, delta)
        d_reference = self.run(
            machine, reference, grid, steps, per_sweep, delta
        )
        assert d_planned == d_reference
        assert np.array_equal(planned.to_numpy(), reference.to_numpy())

    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("grid", [(4, 1), (2, 2), (1, 4)])
    def test_planned_is_bit_identical_to_the_per_sweep_reference(
        self, grid, depth
    ):
        """Sweeps 1-5 in turn on one pair of arrays, with and without
        ``delta_out``: every call's field and delta equal the reference's
        bit for bit (``(4, 1)`` sections are 2 rows, thinner than a
        3-deep border)."""
        machine = Machine(4, default_recv_timeout=10)
        am_util.load_all(machine)
        planned, reference = self.pair(machine, grid, depth, depth)
        for steps in range(1, 6):
            for delta in (False, True):
                self.run_both(
                    machine, planned, reference, grid, steps, delta
                )
        assert get_perf_layer(machine).plans.strips_sent > 0

    def test_a_reallocated_section_gets_new_regions_and_the_old_go(self):
        """``verify_borders`` gives every copy a new section: the next
        calls sweep regions made for it and stay bit-identical, and once
        an old section is collected, the regions kept with it are too."""
        machine = Machine(4, default_recv_timeout=10)
        am_util.load_all(machine)
        grid = (2, 2)
        planned, reference = self.pair(machine, grid, 1, 11)
        self.run_both(machine, planned, reference, grid, 2, True)
        manager = get_array_manager(machine)

        def sections():
            return [
                manager._lookup(
                    machine.processor(p), planned.array_id
                ).section
                for p in planned.processors
            ]

        old = sections()
        buffers = [
            weakref.ref(region.out)
            for section in old
            for first, _, later in _PHASE_REGIONS[section].values()
            for region in first + later
        ]
        for arr in (planned, reference):
            arr.verify_borders([2, 2, 2, 2])
        for steps in (1, 2, 3):
            self.run_both(machine, planned, reference, grid, steps, True)
        new = sections()
        assert all(section in _PHASE_REGIONS for section in new)
        assert not any(a is b for a, b in zip(old, new))
        del old
        gc.collect()
        assert buffers and all(ref() is None for ref in buffers)


class TestDistributedStencil:
    @pytest.mark.parametrize("grid", [(2, 2), (4, 1), (1, 4)])
    def test_matches_serial_reference(self, m4, grid):
        """The distributed bordered sweep equals the single-domain sweep —
        border exchange is exactly the glue that makes them agree."""
        shape = (8, 8)
        rng = np.random.default_rng(0)
        initial = rng.uniform(0, 100, shape)
        aid, procs = make_field(m4, shape, grid, initial)
        steps = 3
        res = distributed_call(
            m4, procs, heat_steps,
            [grid[0], grid[1], steps, Local(aid)],
        )
        assert res.status is Status.OK
        result = gather(m4, aid, shape, grid)
        assert np.allclose(result, serial_reference(initial, steps))

    def test_delta_reduces_over_time(self, m4):
        shape = (8, 8)
        initial = np.zeros(shape)
        initial[4, 4] = 1000.0
        aid, procs = make_field(m4, shape, (2, 2), initial)
        deltas = []
        for _ in range(4):
            res = distributed_call(
                m4, procs, heat_steps,
                [2, 2, 2, Local(aid), Reduce("double", 1, "max")],
            )
            deltas.append(res.reductions[0])
        assert deltas[-1] < deltas[0]

    def test_stencil_requires_borders(self, m4):
        procs = am_util.node_array(0, 1, 4)
        aid, st = am_user.create_array(
            m4, "double", (8, 8), procs, ("block", "block")
        )  # no borders
        assert st is Status.OK
        res = distributed_call(
            m4, procs, heat_steps, [2, 2, 1, Local(aid)]
        )
        assert res.status is Status.ERROR  # kernel rejects borderless arrays

    def test_conservation_trend(self, m4):
        """Diffusion with zero-edge Dirichlet only loses mass (monotone
        non-increasing total)."""
        shape = (8, 8)
        initial = np.full(shape, 50.0)
        aid, procs = make_field(m4, shape, (2, 2), initial)
        previous = initial.sum()
        for _ in range(3):
            distributed_call(
                m4, procs, heat_steps, [2, 2, 1, Local(aid)]
            )
            current = gather(m4, aid, shape, (2, 2)).sum()
            assert current <= previous + 1e-9
            previous = current


class TestUnmanagedInputs:
    """What ``heat_steps`` is handed selects the path: anything that is
    not the local section of a managed array runs the per-sweep
    reference — here without a distributed call or an array around it."""

    GRIDS = [(2, 2), (4, 1), (1, 4), (1, 1)]

    def run_copies(self, machine, grid, make_section, steps=3):
        """One copy per grid cell under a bare ``SPMDContext``, each on
        the block of a random 8 x 8 field that ``make_section`` wraps;
        returns the gathered field, the copies' deltas and the serial
        mirror's field."""
        gr, gc = grid
        rows, cols = 8 // gr, 8 // gc
        initial = np.random.default_rng(gr * 5 + gc).uniform(0, 100, (8, 8))
        sections, deltas = [], []
        for rank in range(gr * gc):
            r, c = divmod(rank, gc)
            sections.append(make_section(
                initial[r * rows:(r + 1) * rows, c * cols:(c + 1) * cols]
            ))
            deltas.append(np.zeros(1))
        contexts = [
            SPMDContext(machine, list(range(gr * gc)), rank, "bare")
            for rank in range(gr * gc)
        ]
        par(*[
            lambda ctx=ctx, section=section, delta=delta: heat_steps(
                ctx, gr, gc, steps, section, delta
            )
            for ctx, section, delta in zip(contexts, sections, deltas)
        ])
        out = np.empty((8, 8))
        for rank, section in enumerate(sections):
            r, c = divmod(rank, gc)
            out[r * rows:(r + 1) * rows, c * cols:(c + 1) * cols] = (
                section[1:-1, 1:-1] if isinstance(section, np.ndarray)
                else section.interior()
            )
        return out, deltas, serial_reference(initial, steps)

    @pytest.mark.parametrize("grid", GRIDS)
    def test_bare_frames_on_a_machine_with_no_array_manager(self, grid):
        def framed(block):
            full = np.zeros((block.shape[0] + 2, block.shape[1] + 2))
            full[1:-1, 1:-1] = block
            return full

        machine = Machine(grid[0] * grid[1], default_recv_timeout=10)
        field, deltas, expected = self.run_copies(machine, grid, framed)
        assert np.array_equal(field, expected)
        assert len({float(d[0]) for d in deltas}) == 1 and deltas[0][0] > 0

    @pytest.mark.parametrize("grid", GRIDS)
    def test_sections_no_record_holds(self, grid):
        """A ``LocalSection`` made by hand, borders 2 deep, on a machine
        whose array manager knows no array: the registry finds no record
        for it and sends no strip."""
        def by_hand(block):
            section = LocalSection("double", block.shape, (2,) * 4, "row")
            section.interior()[:] = block
            return section

        machine = Machine(grid[0] * grid[1], default_recv_timeout=10)
        am_util.load_all(machine)
        field, _, expected = self.run_copies(machine, grid, by_hand)
        assert np.array_equal(field, expected)
        assert get_perf_layer(machine).plans.strips_sent == 0
