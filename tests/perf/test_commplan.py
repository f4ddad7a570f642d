"""Precompiled halo-exchange plans (``repro.perf.commplan``).

Covers the three correctness pillars of planning: geometry (every fused
strip carries exactly the cells a brute-force neighbour read would),
validity (a plan is its layout's: it outlives recovery, migration and
rebalance, a border change recompiles it, and stale strips are fenced,
never applied), and delivery discipline
(exactly-once border fill under drop/duplicate fault injection, with the
prefetch/complete overlap producing bit-identical results).
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrays import am_util, redistribute
from repro.arrays.layout import COLUMN_MAJOR, ROW_MAJOR, ArrayLayout
from repro.arrays.manager import get_array_manager
from repro.arrays.record import ArrayID
from repro.calls import Local, Reduce, distributed_call
from repro.core.darray import DistributedArray
from repro.faults import FaultPlan, FaultyTransport, install_recovery
from repro.perf import HALO_BULK_KIND, StalePlanError, get_perf_layer
from repro.perf.commplan import HaloStrip, compile_halo_plan
from repro.spmd.stencil import (
    exchange_halos,
    frame_view,
    heat_steps,
    jacobi_sweep,
)
from repro.status import Status
from repro.vp.fabric import TrafficMeter
from repro.vp.machine import Machine

DISTRIB_2X2 = (("block", 2), ("block", 2))


@pytest.fixture
def machine():
    m = Machine(6, default_recv_timeout=10)
    am_util.load_all(m)
    return m


def make_array(machine, shape=(8, 8), grid=(2, 2), borders=1,
               replication=0, procs=None):
    if procs is None:
        procs = list(range(int(np.prod(grid))))
    if isinstance(borders, int):
        borders = [borders] * (2 * len(shape))
    return DistributedArray.create(
        machine, "double", shape, procs,
        [("block", g) for g in grid], borders=borders,
        replication=replication,
    )


def plans_of(machine):
    return get_perf_layer(machine).plans


def serial_sweeps(field, steps):
    """The single-domain NumPy mirror: the relaxed field and the max
    |change| of the last sweep."""
    full = np.zeros((field.shape[0] + 2, field.shape[1] + 2))
    full[1:-1, 1:-1] = field
    delta = 0.0
    for _ in range(steps):
        new = jacobi_sweep(full)
        delta = float(np.max(np.abs(new - full[1:-1, 1:-1])))
        full[1:-1, 1:-1] = new
    return full[1:-1, 1:-1], delta


def serial_reference(field, steps):
    return serial_sweeps(field, steps)[0]


# ---------------------------------------------------------------------------
# Geometry: plan slices vs brute-force neighbour reads
# ---------------------------------------------------------------------------


def section_origin(layout, section):
    coords = layout.section_coords(section)
    return tuple(c * ld for c, ld in zip(coords, layout.local_dims))


def global_range(origin, pad, slc, axis):
    """Map one local full-view slice to global index bounds."""
    return (origin[axis] + slc.start - pad, origin[axis] + slc.stop - pad)


class TestPlanGeometry:
    @pytest.mark.parametrize(
        "shape,grid,borders",
        [
            ((8, 8), (2, 2), 2),     # (block, block), square sections
            ((8, 16), (2, 2), 1),    # unequal local dims (4 x 8)
            ((8, 8), (4, 1), 3),     # (block, *): thin 2x8 strips clip
                                     # the usable depth below the pad
            ((8, 8), (1, 4), 2),     # column strips, stage-1 only
        ],
    )
    def test_slices_map_to_identical_global_cells(
        self, machine, shape, grid, borders
    ):
        """Every transfer's source interior strip and destination border
        strip cover the *same* global cells — the fused message is exactly
        the brute-force per-region read it replaces."""
        arr = make_array(machine, shape, grid, borders)
        plan = arr.halo_plan()
        assert plan is not None
        layout = arr.layout
        assert plan.depth == min(borders, min(layout.local_dims))
        for k in range(1, plan.depth + 1):
            transfers = plan.transfers(k)
            for t in transfers:
                src_o = section_origin(layout, t.edge.src_section)
                dst_o = section_origin(layout, t.edge.dest_section)
                for axis, (s, d) in enumerate(
                    zip(t.src_slices, t.dest_slices)
                ):
                    assert global_range(src_o, plan.pad, s, axis) == \
                        global_range(dst_o, plan.pad, d, axis)
                # Destination cells are border cells only: along the edge
                # axis the strip sits strictly outside the interior.
                d = t.dest_slices[t.edge.axis]
                pad = plan.pad
                interior = layout.local_dims[t.edge.axis]
                assert d.stop <= pad or d.start >= pad + interior
        # Exactly one fused transfer per neighbour per stage at any depth.
        per_dest = {}
        for t in plan.transfers(plan.depth):
            key = (t.edge.dest_section, t.edge.side)
            per_dest[key] = per_dest.get(key, 0) + 1
        assert all(n == 1 for n in per_dest.values())

    def test_depth_outside_range_rejected(self, machine):
        arr = make_array(machine, borders=2)
        plan = arr.halo_plan()
        with pytest.raises(ValueError):
            plan.transfers(0)
        with pytest.raises(ValueError):
            plan.transfers(plan.depth + 1)

    def test_non_uniform_borders_out_of_scope(self, machine):
        arr = make_array(machine, borders=[1, 1, 2, 2])
        assert arr.halo_plan() is None

    @pytest.mark.parametrize(
        "shape,grid,borders,k",
        [((8, 8), (2, 2), 2, 2), ((8, 16), (2, 2), 1, 1),
         ((12,), (4,), 2, 2)],
    )
    def test_manual_exchange_fills_borders_with_neighbour_data(
        self, machine, shape, grid, borders, k
    ):
        """Drive one exchange phase by hand on every section and check
        each border cell against a padded global mirror — the brute-force
        definition of a correct halo."""
        arr = make_array(machine, shape, grid, borders)
        values = np.arange(np.prod(shape), dtype=float).reshape(shape)
        arr.from_numpy(values)
        plan = arr.halo_plan()
        registry = plans_of(machine)
        manager = get_array_manager(machine)
        state = manager.durability_state(arr.array_id)
        pad = plan.pad
        mirror = np.zeros(tuple(s + 2 * pad for s in shape))
        mirror[tuple(slice(pad, pad + s) for s in shape)] = values
        exchanges = []
        for section, owner in enumerate(state.processors):
            record = manager._lookup(
                machine.processor(owner), arr.array_id
            )
            exchanges.append(
                (section, owner, record,
                 plan.begin(registry, record, record.section.full(),
                            section, k, ("test-call", 0), owner))
            )
        for _, _, _, ex in exchanges:
            ex.prefetch()
        threads = [
            threading.Thread(target=ex.complete) for _, _, _, ex in exchanges
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=20)
            assert not t.is_alive()
        for section, owner, record, ex in exchanges:
            full = record.section.full()
            origin = section_origin(arr.layout, section)
            for t in plan.transfers(k):
                if t.edge.dest_section != section:
                    continue
                got = full[t.dest_slices]
                want = mirror[tuple(
                    slice(origin[axis] + s.start, origin[axis] + s.stop)
                    for axis, s in enumerate(t.dest_slices)
                )]
                assert np.array_equal(got, want), (
                    f"section {section} side {t.edge.side}"
                )
        diag = registry.diagnostics()
        assert diag["exchanges"] == len(exchanges)
        assert diag["strips_claimed"] == len(plan.transfers(k))


# ---------------------------------------------------------------------------
# The schedule a phase walks vs the transfer list it was compiled from
# ---------------------------------------------------------------------------

SIDES = ("north", "south", "west", "east")


@st.composite
def plans_and_depths(draw):
    """A plan over any block layout in scope — rank 1 or 2, any grid
    shape incl. ``(P, 1)`` / ``(1, P)`` / one section, unequal local
    dims, either grid ordering, any pad — and a depth it supports."""
    rank = draw(st.sampled_from([1, 2]))
    grid = tuple(draw(st.integers(1, 4)) for _ in range(rank))
    local = tuple(draw(st.integers(1, 5)) for _ in range(rank))
    pad = draw(st.integers(1, 3))
    layout = ArrayLayout(
        dims=tuple(g * n for g, n in zip(grid, local)),
        grid=grid,
        borders=(pad,) * (2 * rank),
        indexing=ROW_MAJOR,
        grid_indexing=draw(st.sampled_from([ROW_MAJOR, COLUMN_MAJOR])),
    )
    plan = compile_halo_plan(ArrayID(0, 7), layout)
    return plan, draw(st.integers(1, plan.depth))


def stage_of(schedule, stage):
    for number, sends, receives in schedule.stages:
        if number == stage:
            return sends, receives
    return (), ()


class TestSchedule:
    @settings(max_examples=150, deadline=None)
    @given(plans_and_depths())
    def test_schedule_is_the_transfer_filter_it_replaces(self, case):
        """Every transfer of the unfiltered ``transfers(k)`` is exactly one
        send in its source's schedule and one receive in its
        destination's, in its edge's stage and in transfer order, with the
        same slices under the rendezvous key prefix of the edge; a
        schedule holds nothing else, and a stage with no transfer is not
        in it at all."""
        plan, k = case
        aid = plan.array_id.as_tuple()
        want = {}  # (section, stage) -> (sends, receives)
        for t in plan.transfers(k):
            e = t.edge
            prefix = (aid, e.src_section, e.dest_section, e.side, e.stage)
            want.setdefault((e.src_section, e.stage), ([], []))[0].append(
                (e.dest_section, e.side, t.src_slices, t.dest_slices, prefix)
            )
            want.setdefault((e.dest_section, e.stage), ([], []))[1].append(
                (e.side, prefix)
            )
        for section in range(plan.layout.num_sections):
            schedule = plan.schedule(section, k)
            assert plan.schedule(section, k) is schedule  # kept, not rebuilt
            numbers = [number for number, _, _ in schedule.stages]
            assert numbers == sorted(set(numbers))
            received = set()
            for stage in range(plan.stages):
                sends, receives = stage_of(schedule, stage)
                want_sends, want_recvs = want.get((section, stage), ([], []))
                assert list(sends) == want_sends
                assert list(receives) == want_recvs
                assert (stage in numbers) == bool(want_sends or want_recvs)
                received.update(side for side, _ in want_recvs)
            assert schedule.sides == received

    @settings(max_examples=150, deadline=None)
    @given(plans_and_depths(), st.sets(st.sampled_from(SIDES)))
    def test_every_strip_posted_is_the_strip_claimed(self, case, sides):
        """For every directed edge, whatever ``sides`` the exchange was
        opened with (every copy of a call passes the same): the sender
        posts a strip exactly when the receiver claims one under the same
        key, and the cells the sender copies out are, in global
        coordinates, the cells the receiver fills.  Nothing is posted to
        sit unclaimed; nobody waits for a strip nobody posts."""
        plan, k = case
        layout = plan.layout
        for chosen in (None, frozenset(sides)):
            posted, claimed = {}, set()
            for section in range(layout.num_sections):
                for _, sends, receives in plan.schedule(
                    section, k, chosen
                ).stages:
                    for dest, side, src, dst, prefix in sends:
                        assert prefix not in posted
                        posted[prefix] = (section, dest, src, dst)
                    for side, prefix in receives:
                        assert prefix not in claimed
                        claimed.add(prefix)
            assert set(posted) == claimed
            if chosen is None:
                assert len(posted) == len(plan.edges)
            for (_, src_sec, dest_sec, side, stage) in posted:
                relayed = stage + 1 < plan.stages and any(
                    e.stage > stage for e in plan.edges
                )
                assert chosen is None or side in chosen or relayed
            for section, dest, src, dst in posted.values():
                src_o = section_origin(layout, section)
                dst_o = section_origin(layout, dest)
                for axis, (s, d) in enumerate(zip(src, dst)):
                    assert global_range(src_o, plan.pad, s, axis) == \
                        global_range(dst_o, plan.pad, d, axis)


@pytest.mark.parametrize("n", [4, 8, 16])
def test_compiling_every_schedule_computes_each_strip_once(monkeypatch, n):
    """A plan finds its edges with one ``redistribute.transfers`` call per
    axis; compiling every section's schedule at the plan's depth then
    computes each strip once — for its send; a receive is a side and a
    key — so compiling a plan is linear in its edges, not sections x
    edges."""
    calls = []
    real = redistribute.transfers

    def counted(src, dst):
        calls.append(1)
        return real(src, dst)

    monkeypatch.setattr(redistribute, "transfers", counted)
    layout = ArrayLayout(
        dims=(4 * n, 4 * n), grid=(n, n), borders=(2,) * 4,
        indexing=ROW_MAJOR, grid_indexing=ROW_MAJOR,
    )
    plan = compile_halo_plan(ArrayID(0, 9), layout)
    assert len(calls) == layout.rank
    assert len(plan.edges) == 2 * 2 * n * (n - 1)
    for section in range(layout.num_sections):
        plan.schedule(section, plan.depth)
    assert len(calls) == layout.rank + len(plan.edges)


# ---------------------------------------------------------------------------
# Planned vs unplanned equivalence + message fusion
# ---------------------------------------------------------------------------


def per_sweep_heat_steps(ctx, grid_rows, grid_cols, steps, section, delta_out):
    """The per-sweep reference, reached by input: the same kernel handed
    the section's frame view — a bare ndarray, which no record holds."""
    heat_steps(
        ctx, grid_rows, grid_cols, steps, frame_view(section), delta_out
    )


def run_heat(machine, arr, grid, steps, program=heat_steps):
    res = distributed_call(
        machine, list(arr.processors), program,
        [grid[0], grid[1], steps, Local(arr.array_id),
         Reduce("double", 1, "max")],
    )
    assert res.status is Status.OK
    return res.reductions[0]


class TestPlannedEquivalence:
    @pytest.mark.parametrize("steps", [1, 3, 4, 7])
    def test_deep_border_sweeps_match_serial_reference(self, machine, steps):
        """Deep borders amortise one exchange over several sweeps; the
        redundant frame recomputation must stay bit-identical to the
        per-sweep exchange (= the serial single-domain reference)."""
        rng = np.random.default_rng(1)
        initial = rng.uniform(0, 100, (8, 8))
        arr = make_array(machine, (8, 8), (2, 2), borders=4)
        arr.from_numpy(initial)
        run_heat(machine, arr, (2, 2), steps)
        assert np.allclose(
            arr.to_numpy(), serial_reference(initial, steps),
            rtol=0, atol=0,
        )

    @settings(max_examples=150, deadline=None)
    @given(
        grid=st.sampled_from([(2, 2), (4, 1), (1, 4), (1, 1)]),
        depth=st.integers(1, 4),
        steps=st.integers(1, 7),
    )
    def test_planned_reference_and_serial_mirror_agree(
        self, grid, depth, steps
    ):
        """Planned field and delta == the per-sweep reference's == the
        serial mirror's, bit for bit, at every border depth (sections
        thinner than their border included: ``(4, 1)`` has 2 rows).  The
        path follows the input: the managed section sends planned strips
        wherever it has a neighbour, the frame view of an identical array
        sends none — a reference that engaged the plan fails here."""
        machine = Machine(4, default_recv_timeout=10)
        am_util.load_all(machine)
        registry = plans_of(machine)
        initial = np.random.default_rng(depth * 8 + steps).uniform(
            0, 100, (8, 8)
        )
        planned = make_array(machine, (8, 8), grid, borders=depth)
        planned.from_numpy(initial)
        d_planned = run_heat(machine, planned, grid, steps)
        sent = registry.strips_sent
        assert (sent > 0) == (grid != (1, 1))

        reference = make_array(machine, (8, 8), grid, borders=depth)
        reference.from_numpy(initial)
        d_reference = run_heat(
            machine, reference, grid, steps, per_sweep_heat_steps
        )
        assert registry.strips_sent == sent

        field, delta = serial_sweeps(initial, steps)
        assert d_planned == d_reference == delta
        assert np.array_equal(planned.to_numpy(), field)
        assert np.array_equal(reference.to_numpy(), field)

    def test_one_fused_message_per_neighbour_per_phase(self, machine):
        """Depth-4 borders: 9 sweeps = 3 exchange phases, 8 routed strips
        per phase on a fully remote 2x2 grid — versus 8 per *sweep* for
        the unplanned path."""
        arr = make_array(machine, (8, 8), (2, 2), borders=4)
        arr.from_numpy(np.ones((8, 8)))
        run_heat(machine, arr, (2, 2), 1)  # warm the plan cache
        meter = TrafficMeter()
        machine.transport_stack.push(meter)
        try:
            run_heat(machine, arr, (2, 2), 9)
            halo = meter.snapshot()["by_kind"].get(HALO_BULK_KIND, (0, 0))
        finally:
            machine.transport_stack.remove(meter)
        assert halo[0] == 3 * 8  # 3 phases x 8 neighbour edges

    def test_rendezvous_holds_under_a_tiny_switch_interval(self, machine):
        """Deliverer and claimer meet in one variable through the
        registry's get-or-create / read / pop, whichever comes first, and
        copies share the plan's lazily compiled schedules.  Forty short
        calls with threads switched every microsecond: bit-identical to
        the serial reference, one strip per edge per phase, nothing left
        parked (a missed wake-up would be a 10 s TimeoutError here)."""
        rng = np.random.default_rng(4)
        initial = rng.uniform(0, 100, (8, 8))
        arr = make_array(machine, (8, 8), (2, 2), borders=2)
        arr.from_numpy(initial)
        meter = TrafficMeter()
        machine.transport_stack.push(meter)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(40):
                run_heat(machine, arr, (2, 2), 3)
        finally:
            sys.setswitchinterval(interval)
            machine.transport_stack.remove(meter)
        assert np.array_equal(arr.to_numpy(), serial_reference(initial, 120))
        # 2 phases a call (depth 2 then 1), 8 directed edges on 2 x 2; the
        # meter counts under a lock (the registry's own counters are bare
        # ``+=`` and may lose an update at this interval).
        halo = meter.snapshot()["by_kind"][HALO_BULK_KIND]
        assert halo[0] == 40 * 2 * 8
        assert plans_of(machine).diagnostics()["pending_rendezvous"] == 0

    def test_unplanned_fallback_rejects_ragged_borders(self, machine):
        """No plan covers them, so the section reaches the per-sweep
        reference, which has no frame to take either."""
        arr = make_array(machine, (8, 8), (2, 2), borders=[1, 1, 2, 2])
        arr.from_numpy(np.ones((8, 8)))
        res = distributed_call(
            machine, list(arr.processors), heat_steps,
            [2, 2, 1, Local(arr.array_id)],
        )
        assert res.status is Status.ERROR


class TestGridMismatch:
    def test_exchange_halos_names_grid_and_shape(self):
        class _Ctx:
            procs = [0, 1, 2]
            index = 0

        with pytest.raises(ValueError) as exc:
            exchange_halos(_Ctx(), np.zeros((4, 4)), 2, 3)
        msg = str(exc.value)
        assert "2x3" in msg and "6" in msg and "3" in msg
        assert "(4, 4)" in msg

    def test_distributed_call_with_wrong_grid_fails_cleanly(self, machine):
        arr = make_array(machine, (8, 8), (2, 2), borders=1)
        arr.from_numpy(np.ones((8, 8)))
        # Grid args that are not the grid of the array the section
        # belongs to — whether or not they multiply to its owner count:
        # the kernel refuses them.
        for wrong in ((4, 4), (4, 1)):
            res = distributed_call(
                machine, list(arr.processors), heat_steps,
                [wrong[0], wrong[1], 1, Local(arr.array_id)],
            )
            assert res.status is Status.ERROR
        assert np.array_equal(arr.to_numpy(), np.ones((8, 8)))


# ---------------------------------------------------------------------------
# Plan cache: hits, layout changes, stale fencing
# ---------------------------------------------------------------------------


def test_one_stale_plan_error_for_moves_and_halos():
    """A section move and a halo exchange raise the same class, so a
    handler that catches one package's stale plan catches the other's."""
    import repro.arrays
    import repro.perf
    import repro.status

    assert repro.arrays.StalePlanError is repro.perf.StalePlanError
    assert repro.perf.StalePlanError is repro.status.StalePlanError


class TestPlanCache:
    @pytest.mark.parametrize("change", ["migrate", "recovery", "rebalance"])
    def test_plan_outlives_a_membership_change(self, machine, change):
        """A plan is its layout's: after a migration, a recovery or a
        rebalance the array's plan is the same object and nothing is
        compiled, and a run on fresh values — its strips routed to the
        moved section's new owner — is still the serial mirror's."""
        if change == "recovery":
            install_recovery(machine)
        initial = np.random.default_rng(6).uniform(0, 100, (8, 8))
        arr = make_array(machine, borders=2, replication=1)
        arr.from_numpy(initial)
        run_heat(machine, arr, (2, 2), 2)
        registry = plans_of(machine)
        plan = arr.halo_plan()
        schedules = dict(plan._schedules)
        assert schedules  # the call compiled one per copy
        compiled = registry.diagnostics()["compiled"]
        if change == "migrate":
            arr.migrate({3: 4})
        elif change == "recovery":
            machine.fail(3)  # section 3's owner; recovery adopts a mirror
        else:
            arr.rebalance([0, 1, 2, 4])
        owner = arr.processors[3]
        assert owner != 3
        assert arr.halo_plan() is plan

        landed = []

        def tap(message, forward):
            if message.kind == HALO_BULK_KIND:
                landed.append((message.payload.section, message.dest))
            forward(message)

        arr.from_numpy(initial)
        machine.transport_stack.push(tap)
        try:
            run_heat(machine, arr, (2, 2), 2)
        finally:
            machine.transport_stack.remove(tap)
        assert np.array_equal(arr.to_numpy(), serial_reference(initial, 2))
        assert {dest for section, dest in landed if section == 3} == {owner}
        assert plan._schedules == schedules  # served again, none compiled
        diag = registry.diagnostics()
        assert diag["compiled"] == compiled
        assert diag["invalidations"] == 0

    def test_copies_compiling_at_once_share_one_plan(
        self, machine, monkeypatch
    ):
        """The copies of a call engage a fresh array at the same moment
        and each compiles a plan; all of them are handed the one stored
        first, so no copy's schedules land in a plan the registry has
        already replaced."""
        from repro.perf import commplan

        arr = make_array(machine)
        registry = plans_of(machine)
        assert registry.diagnostics()["compiled"] == 0
        together = threading.Barrier(2)

        def compile_together(array_id, layout):
            together.wait(timeout=10)
            return compile_halo_plan(array_id, layout)

        monkeypatch.setattr(commplan, "compile_halo_plan", compile_together)
        got = []
        threads = [
            threading.Thread(
                target=lambda: got.append(registry.halo_plan(arr.array_id))
            )
            for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert len(got) == 2 and got[0] is got[1] is not None
        assert registry.diagnostics()["compiled"] == 1

    @pytest.mark.parametrize("replication", [1, 2])
    def test_recovery_after_a_call_keeps_what_the_kernel_wrote(
        self, machine, replication
    ):
        """A kernel writes its section in place; each copy then reseeds
        the section's mirrors, one replica update a backup, so the owner
        that dies right after the call is rebuilt from the relaxed field,
        not from the one the call was handed."""
        install_recovery(machine)
        initial = np.random.default_rng(6).uniform(0, 100, (8, 8))
        arr = make_array(machine, borders=2, replication=replication)
        arr.from_numpy(initial)
        meter = TrafficMeter()
        machine.transport_stack.push(meter)
        try:
            run_heat(machine, arr, (2, 2), 2)
        finally:
            machine.transport_stack.remove(meter)
        machine.fail(3)
        assert arr.processors[3] != 3
        assert np.array_equal(arr.to_numpy(), serial_reference(initial, 2))
        by_kind = meter.snapshot()["by_kind"]
        assert by_kind.get("replica_update", (0, 0))[0] == 4 * replication

    def test_invalidate_on_border_migration(self, machine):
        """``verify_borders`` reallocates sections with a new pad — a new
        layout, and the one change that recompiles the plan instead of
        letting it compute stale slices."""
        arr = make_array(machine, borders=1)
        arr.from_numpy(np.arange(64, dtype=float).reshape(8, 8))
        plan1 = arr.halo_plan()
        assert plan1.pad == 1
        before = plans_of(machine).diagnostics()
        arr.verify_borders([2, 2, 2, 2])
        plan2 = arr.halo_plan()
        assert plan2 is not plan1 and plan2.pad == 2
        after = plans_of(machine).diagnostics()
        assert after["invalidations"] == before["invalidations"] + 1
        assert after["compiled"] == before["compiled"] + 1
        run_heat(machine, arr, (2, 2), 3)  # deep path on the new pad
        assert arr.halo_plan() is plan2
        assert plan2._schedules  # the run walked the new plan's schedules

    def test_stale_strip_is_fenced_never_applied(self, machine):
        """A strip stamped with a pre-rewrite epoch is refused: counted,
        fenced through the STALE_EPOCH machinery, and its rendezvous is
        poisoned so a claimer aborts instead of reading stale data."""
        arr = make_array(machine)
        arr.from_numpy(np.zeros((8, 8)))
        arr.migrate({3: 4})  # epoch 0 -> 1
        manager = get_array_manager(machine)
        registry = plans_of(machine)
        state = manager.durability_state(arr.array_id)
        assert state.epoch >= 1
        owner = state.processors[1]
        record = manager._lookup(machine.processor(owner), arr.array_id)
        before = record.section.full().copy()
        strip = HaloStrip(
            arr.array_id, 0, 1, "west", 1, ("stale-call", 0),
            epoch=0,  # predates the migration's epoch bump
            dest_slices=(slice(0, 9), slice(0, 1)),
            data=np.full((9, 1), 1e9),
            done=None,
        )
        registry.apply_strip(owner, strip)
        assert registry.diagnostics()["stale_strips"] == 1
        # Never applied: border cells untouched.
        assert np.array_equal(record.section.full(), before)
        # The fence is the write path's fence.
        arrays = machine.diagnostics()["arrays"]
        assert arrays[str(arr.array_id.as_tuple())]["fenced_writes"] >= 1
        # A claimer of that rendezvous aborts rather than blocking.
        with pytest.raises(StalePlanError):
            registry.await_strip(strip.key(), timeout=1)

    def test_strip_to_wrong_owner_refused_as_not_found(self, machine):
        arr = make_array(machine)
        registry = plans_of(machine)
        strip = HaloStrip(
            arr.array_id, 0, 1, "west", 1, ("lost-call", 0),
            epoch=0, dest_slices=(slice(0, 1), slice(0, 1)),
            data=np.zeros((1, 1)), done=None,
        )
        registry.apply_strip(5, strip)  # processor 5 owns nothing
        assert registry.diagnostics()["not_found_strips"] == 1

    def test_free_drops_plans_and_rendezvous(self, machine):
        arr = make_array(machine)
        arr.halo_plan()
        registry = plans_of(machine)
        assert registry.diagnostics()["plans"] >= 1
        arr.free()
        assert arr.array_id.as_tuple() not in registry._plans

    def test_metrics_and_diagnostics_exposed(self, machine):
        observer = machine.observe()
        arr = make_array(machine, borders=2)
        arr.from_numpy(np.ones((8, 8)))
        arr.halo_plan()
        arr.halo_plan()
        run_heat(machine, arr, (2, 2), 2)
        diag = machine.diagnostics()["perf"]["comm_plans"]
        assert diag["compiled"] >= 1 and diag["hits"] >= 1
        assert diag["exchanges"] >= 4 and diag["strips_claimed"] >= 8
        assert diag["bytes_claimed"] >= 8 * 2 * 4 * 8  # depth 2, 4 cells
        # One span per counted exchange, annotated with the strips it
        # claimed.
        spans = observer.recorder.spans_named("perf:halo")
        assert len(spans) == diag["exchanges"]
        assert sum(s["attrs"]["strips"] for s in spans) == (
            diag["strips_claimed"]
        )


# ---------------------------------------------------------------------------
# Fault injection: exactly-once border fill under drop/duplicate
# ---------------------------------------------------------------------------


class TestPlannedUnderFaults:
    @pytest.mark.parametrize(
        "plan_kwargs",
        [dict(drop=0.4), dict(duplicate=0.5), dict(drop=0.3, duplicate=0.3)],
    )
    def test_drop_duplicate_halo_traffic_is_exactly_once(
        self, machine, plan_kwargs
    ):
        """Faults scoped to ``halo_bulk`` messages only: dropped strips
        are reshipped after the ack timeout, duplicates collapse in the
        single-assignment rendezvous, and the result stays bit-identical
        to the fault-free serial reference."""
        rng = np.random.default_rng(3)
        initial = rng.uniform(0, 100, (8, 8))
        arr = make_array(machine, (8, 8), (2, 2), borders=4)
        arr.from_numpy(initial)
        registry = plans_of(machine)
        perf = get_perf_layer(machine)
        perf.retry_timeout = 0.25  # keep re-send latency test-sized
        steps = 8
        fault_plan = FaultPlan(
            seed=11, kinds=(HALO_BULK_KIND,), **plan_kwargs
        )
        faulty = FaultyTransport(machine, fault_plan)
        faulty.install()
        try:
            run_heat(machine, arr, (2, 2), steps)
        finally:
            faulty.uninstall()
            perf.retry_timeout = 5.0
        assert np.allclose(
            arr.to_numpy(), serial_reference(initial, steps),
            rtol=0, atol=0,
        )
        diag = registry.diagnostics()
        if "drop" in plan_kwargs:
            assert diag["retries"] >= 1
        if "duplicate" in plan_kwargs:
            assert diag["duplicate_strips"] >= 1
