"""Replica-update fusion: one coalesced mirror message per backup per
batch flush, and its interplay with fault injection (drop/duplicate of
the fused ``array_batch`` message)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import IntegratedRuntime
from repro.apps import innerproduct
from repro.apps.climate import ClimateSimulation
from repro.arrays import am_user, am_util
from repro.arrays.durability import REPLICA_UPDATE_KIND, replica_store_for
from repro.arrays.manager import get_array_manager
from repro.core.darray import DistributedArray
from repro.faults import FaultPlan, FaultyTransport
from repro.faults.plan import FaultDecision
from repro.calls.params import Local, Reduce
from repro.perf import ARRAY_BATCH_KIND, HALO_BULK_KIND, get_perf_layer
from repro.spmd import costs
from repro.spmd.stencil import heat_steps
from repro.status import Status
from repro.vp.fabric import TrafficMeter
from repro.vp.machine import Machine

DISTRIB_2X2 = (("block", 2), ("block", 2))


@pytest.fixture
def machine():
    m = Machine(6, default_recv_timeout=10)
    am_util.load_all(m)
    return m


def make_array(machine, replication=1):
    return DistributedArray.create(
        machine, "double", (8, 8), [0, 1, 2, 3], DISTRIB_2X2,
        replication=replication,
    )


def meter_on(machine):
    meter = TrafficMeter()
    machine.transport_stack.push(meter)
    return meter


def kind_count(meter, kind):
    return meter.snapshot()["by_kind"].get(kind, (0, 0))[0]


class TestFusion:
    def test_one_fused_replica_message_per_flush(self, machine):
        arr = make_array(machine, replication=1)
        meter = meter_on(machine)  # after creation: seeding not counted
        try:
            # Five writes, all landing in section 0 (rows/cols 0..3).
            for i in range(5):
                arr[0, i % 4] = float(i)
            am_user.flush_writes(machine)
            # k=1: exactly ONE replica_update for the whole batch — not
            # one per element write.
            assert kind_count(meter, REPLICA_UPDATE_KIND) == 1
        finally:
            machine.transport_stack.remove(meter)

    def test_two_backups_get_one_fused_message_each(self, machine):
        arr = make_array(machine, replication=2)
        meter = meter_on(machine)
        try:
            for i in range(4):
                arr[0, i] = float(i)
            am_user.flush_writes(machine)
            assert kind_count(meter, REPLICA_UPDATE_KIND) == 2
        finally:
            machine.transport_stack.remove(meter)

    def test_fused_update_lands_in_replica_store(self, machine):
        arr = make_array(machine, replication=1)
        for i in range(4):
            arr[0, i] = float(10 + i)
        am_user.flush_writes(machine)
        state = get_array_manager(machine).durability_state(arr.array_id)
        (backup,) = state.replica_map.backups_for(0)
        epoch, mirror = replica_store_for(
            machine.processor(backup)
        ).fetch(arr.array_id, 0)
        assert mirror[0].tolist() == [10.0, 11.0, 12.0, 13.0]
        assert epoch == state.epoch

    def test_remote_section_batch_plus_replica_is_two_messages(self, machine):
        arr = make_array(machine, replication=1)
        meter = meter_on(machine)
        try:
            # Section 3 (rows/cols 4..7) is owned by processor 3: the batch
            # itself routes, then its one fused replica update routes.
            for i in range(4):
                arr[7, 4 + i] = float(i)
            am_user.flush_writes(machine)
            counts = meter.snapshot()["by_kind"]
            assert counts[ARRAY_BATCH_KIND][0] == 1
            assert counts[REPLICA_UPDATE_KIND][0] == 1
        finally:
            machine.transport_stack.remove(meter)


def test_write_path_wire_is_pinned():
    """The exact messages and bytes of a fixed write script, against
    literals recorded before the mutation vocabulary was unified: a
    change that alters what ``array_batch`` / ``replica_update`` carry
    (or how it is priced) fails here, not only in the macro benchmark."""
    machine = Machine(8, default_recv_timeout=10)
    am_util.load_all(machine)
    arr = make_array(machine, replication=1)
    meter = meter_on(machine)  # after creation: seeding not counted
    machine.reset_traffic()
    # Eight coalesced element writes over all four sections (3/1/1/3) ...
    for i in range(8):
        arr[i, (3 * i) % 8] = float(i + 1)
    assert am_user.flush_writes(machine) == 8
    # ... one region write straddling all four sections, one read-back.
    status = am_user.write_region(
        machine, arr.array_id, [(2, 6), (3, 7)], np.full((4, 4), 9.0)
    )
    assert status is Status.OK
    data, status = am_user.read_region(machine, arr.array_id, [(0, 8), (0, 8)])
    assert status is Status.OK
    expected = np.zeros((8, 8))
    for i in range(8):
        expected[i, (3 * i) % 8] = float(i + 1)
    expected[2:6, 3:7] = 9.0
    assert np.array_equal(data, expected)

    snapshot = machine.traffic_snapshot()
    assert (snapshot["messages"], snapshot["bytes"]) == (17, 328)
    # (messages, bytes) per kind.  Section 0's batch applies inline on
    # processor 0, so three batches route; each of the four flushes and
    # each of the four region shares costs one replica update.
    assert meter.snapshot()["by_kind"] == {
        ARRAY_BATCH_KIND: (3, 88),
        REPLICA_UPDATE_KIND: (8, 192),
        "server_request": (6, 48),
    }


def test_write_path_wire_with_carried_batches_is_pinned():
    """The same script without its explicit flush: the queues ride the
    requests that reach their sections anyway.  The region touches all
    four sections, so each queue goes inside its region share and each
    section commits once — 10 messages where flushing first costs 17, and
    the same 328 bytes: a carrying share is priced as the request and the
    batch it carries."""
    machine = Machine(8, default_recv_timeout=10)
    am_util.load_all(machine)
    arr = make_array(machine, replication=1)
    meter = meter_on(machine)
    machine.reset_traffic()
    for i in range(8):
        arr[i, (3 * i) % 8] = float(i + 1)
    status = am_user.write_region(
        machine, arr.array_id, [(2, 6), (3, 7)], np.full((4, 4), 9.0)
    )
    assert status is Status.OK
    data, status = am_user.read_region(machine, arr.array_id, [(0, 8), (0, 8)])
    assert status is Status.OK
    expected = np.zeros((8, 8))
    for i in range(8):
        expected[i, (3 * i) % 8] = float(i + 1)
    expected[2:6, 3:7] = 9.0
    assert np.array_equal(data, expected)

    snapshot = machine.traffic_snapshot()
    assert (snapshot["messages"], snapshot["bytes"]) == (10, 328)
    # Section 0's queue and share are applied in place on processor 0;
    # the three remote shares carry their queues' 88 bytes.
    assert meter.snapshot()["by_kind"] == {
        REPLICA_UPDATE_KIND: (4, 192),
        "server_request": (6, 48 + 88),
    }
    coalescer = get_perf_layer(machine).coalescer.diagnostics()
    assert coalescer["carried_batches"] == 4
    assert (coalescer["flushes"], coalescer["flushed_ops"]) == (4, 8)


# -- the write path's wire, derived -------------------------------------------

# The script below runs on the 8 x 8 array of make_array: four 4 x 4
# sections, section s held by processor s, every request made on
# processor 0 (the home of a top-level caller).
SECTION = 4


@st.composite
def write_scripts(draw):
    """Element writes queued per section, then a region write, then one
    write and read-back of a cell: (replication, writes, region, cell)."""
    replication = draw(st.integers(0, 1))
    writes = [
        (i, j, float(draw(st.integers(1, 99))))
        for i, j in draw(
            st.lists(
                st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=10
            )
        )
    ]
    r0, c0 = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    region = (
        (r0, draw(st.integers(r0 + 1, 8))), (c0, draw(st.integers(c0 + 1, 8)))
    )
    cell = (draw(st.integers(0, 7)), draw(st.integers(0, 7)))
    return replication, writes, region, cell


def section_of(i, j):
    return 2 * (i // SECTION) + j // SECTION


def derived_wire(replication, writes, region, cell):
    """(by kind up to the read-back, total bytes through the closing
    ``to_numpy()``) of a script, in closed form.

    A dirty section's queue rides the first request that reaches the
    section — its region share, the read-back, or the closing
    ``to_numpy()``'s share — so a section the region does not touch keeps
    its queue until one of them.  A request is one 8-byte
    ``server_request`` when remote, plus the batch it carries, 16 + 8
    bytes a write.  Every commit sends one ``replica_update`` per backup
    of what it applied, 8 bytes a cell.

    Carrying moves the same bytes in fewer messages: the total is what
    the script costs flushing every queue by the route before each
    request, plus ``to_numpy()``'s three remote shares, less one batch
    header when the read-back's section is remote, dirty and untouched —
    its queue and the read-back's write then land as one batch, not
    two."""
    queued = {}
    for i, j, _value in writes:
        s = section_of(i, j)
        queued[s] = queued.get(s, 0) + 1
    dirty = dict(queued)
    (r0, r1), (c0, c1) = region
    cells = {}
    for i in range(r0, r1):
        for j in range(c0, c1):
            s = section_of(i, j)
            cells[s] = cells.get(s, 0) + 1
    by_kind = {}

    def add(kind, nbytes):
        messages, total = by_kind.get(kind, (0, 0))
        by_kind[kind] = (messages + 1, total + nbytes)

    def batch_bytes(ops):
        return 16 + 8 * ops

    def request(s, applied=0):
        ops = queued.pop(s, 0)
        for _ in range(replication):
            add(REPLICA_UPDATE_KIND, 8 * (ops + applied))
        if s != 0:
            add("server_request", 8 + (batch_bytes(ops) if ops else 0))

    for s, applied in cells.items():
        request(s, applied)
    # The write and read-back of ``cell``: the read carries the write.
    s = section_of(*cell)
    queued[s] = queued.get(s, 0) + 1
    request(s)

    routed = sum(batch_bytes(ops) for t, ops in dirty.items() if t != 0)
    requests = sum(1 for t in cells if t != 0) + 3
    if s != 0:
        routed += batch_bytes(1)
        requests += 1
        if s in dirty and s not in cells:
            routed -= 16
    replicas = 8 * replication * (len(writes) + (r1 - r0) * (c1 - c0) + 1)
    return by_kind, routed + replicas + 8 * requests


@pytest.fixture(scope="module")
def wire_machine():
    machine = Machine(8, default_recv_timeout=10)
    am_util.load_all(machine)
    return machine


@settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(script=write_scripts())
def test_write_path_wire_is_derived(wire_machine, script):
    """Measured (messages, bytes) by kind of a write script equal the
    closed form of :func:`derived_wire`, and so do the total bytes once
    the closing ``to_numpy()`` has landed the queues the region did not
    touch."""
    machine = wire_machine
    replication, writes, region, cell = script
    arr = make_array(machine, replication=replication)
    mirror = np.zeros((8, 8))
    meter = meter_on(machine)
    try:
        for i, j, value in writes:
            arr[i, j] = value
            mirror[i, j] = value
        (r0, r1), (c0, c1) = region
        block = np.arange((r1 - r0) * (c1 - c0), dtype=float).reshape(
            r1 - r0, c1 - c0
        )
        assert am_user.write_region(
            machine, arr.array_id, region, block
        ) is Status.OK
        mirror[r0:r1, c0:c1] = block
        arr[cell] = -1.0
        assert arr[cell] == -1.0
        mirror[cell] = -1.0
        measured = meter.snapshot()
        assert np.array_equal(arr.to_numpy(), mirror)
        closed = meter.snapshot()
    finally:
        machine.transport_stack.remove(meter)
    by_kind, total_bytes = derived_wire(*script)
    assert measured["by_kind"] == by_kind
    assert closed["bytes"] == total_bytes
    assert get_perf_layer(machine).coalescer.lost_batches == 0
    arr.free()


def test_ex61_wire_is_pinned():
    """The EX-6.1 op of the macro benchmark's ``ex61_calls`` — create two
    vectors over all 8 processors, one distributed call, free both — in
    routed messages and array-manager requests, each derived:

    * lifecycle, per vector: ``create_array`` and ``free_array`` run on
      processor 0 for the top-level caller (a local request, no message)
      and fan one ``create_local`` / ``free_local`` out to each of the 8
      holders, 7 of them routed; the handle then asks processor 0 for the
      ``layout`` once (it was three ``find_info`` before).  2 x (1 + 8 +
      1 + 1 + 8) = 38 requests, 2 x (7 + 7) = 28 ``server_request``
      messages.
    * the call: each of the 8 wrapper copies resolves its two local
      sections on its own node — 16 ``find_local``, no message — and the
      program's ``allreduce`` is a binomial reduce (P - 1 = 7 messages)
      then a binomial bcast (7): 14 ``user`` messages.  The wrapper's
      status / reduction combine travels through definitional variables.

    54 requests, 42 messages of one 8-byte word each."""
    rt = IntegratedRuntime(8)
    machine = rt.machine
    innerproduct.run(rt, local_m=4)  # anything lazy happens here
    manager = get_array_manager(machine)
    before = dict(manager.request_counts)
    meter = meter_on(machine)
    machine.reset_traffic()
    assert innerproduct.run(rt, local_m=4) == (
        innerproduct.expected_inner_product(32)
    )
    snapshot = machine.traffic_snapshot()
    assert (snapshot["messages"], snapshot["bytes"]) == (42, 336)
    assert meter.snapshot()["by_kind"] == {
        "user": (14, 112),
        "server_request": (28, 224),
    }
    requests = {
        name: count - before.get(name, 0)
        for name, count in manager.request_counts.items()
        if count != before.get(name, 0)
    }
    assert requests == {
        "create_array": 2,
        "create_local": 16,
        "find_info": 2,
        "find_local": 16,
        "free_array": 2,
        "free_local": 16,
    }


def _climate_wire(sweeps):
    """Run the FIG-2.1 op of the macro benchmark's ``climate_halo`` — one
    coupled time step of two 32 x 64 domains, each four (8 x 64)-row
    sections, ``sweeps`` sweeps a step, then both fields read back — once
    to compile the two plans and once metered.  Returns the simulation,
    the metered op's ``(messages, bytes)``, its traffic by kind, and what
    the plan registry counted for it."""
    rt = IntegratedRuntime(8)
    machine = rt.machine
    sim = ClimateSimulation(rt, shape=(32, 64), sweeps_per_step=sweeps)
    sim.run(1)  # the two plans compile here
    registry = get_perf_layer(machine).plans
    before = registry.diagnostics()
    meter = meter_on(machine)
    machine.reset_traffic()
    sim.run(1)
    snapshot = machine.traffic_snapshot()
    after = registry.diagnostics()
    machine.transport_stack.remove(meter)
    counted = {
        key: after[key] - before[key]
        for key in ("compiled", "strips_sent", "strips_claimed")
    }
    counted["pending_rendezvous"] = after["pending_rendezvous"]
    return (
        sim,
        (snapshot["messages"], snapshot["bytes"]),
        meter.snapshot()["by_kind"],
        counted,
    )


def _modelled_halo(sim, k):
    """``halo_bulk`` (messages, bytes) of one depth-``k`` phase in each of
    the two domains, by :func:`repro.spmd.costs.halo_phase`."""
    layout = sim.ocean.array.layout
    messages, nbytes = costs.halo_phase(layout.local_dims, layout.grid, k)
    return 2 * messages, 2 * nbytes


def test_climate_wire_is_pinned():
    """The ``climate_halo`` op — two sweeps a step, so borders 2 deep —
    in routed messages, each derived:

    * halo: a ``(4, 1)`` grid has 3 adjacent pairs = 6 directed edges and
      no second stage; borders as deep as the step make the step one
      phase.  2 domains x 1 phase x 6 edges = 12 ``halo_bulk``, each two
      rows of 64 doubles (1024 B) + the 64 B strip header: 13056 B, the
      model's figure (``costs.halo_phase``) for one phase of each domain.
    * the step asks for no convergence measure, so no copy computes or
      reduces one: no ``user`` message.
    * task level, from the unplaced top-level thread (its requests run
      on processor 0, a targeted write runs in place at its owner): the
      interface exchange reads the ocean's top row (processor 0 itself)
      and the atmosphere's bottom row (processor 7: 1 message) and writes
      both back in place; ``to_numpy`` asks each domain's four owners
      (ocean 0-3: 3 routed, atmosphere 4-7: 4).  1 + 3 + 4 = 8
      ``server_request`` of one 8-byte word.

    20 messages, 13120 bytes — against 32 / 13888 while the borders were
    1 deep and every sweep was a phase (the twin below keeps that
    derivation running).  A caller that does ask for the delta pays a
    binomial reduce + bcast over each group of 4: 2 x 2 x (4 - 1) = 12
    ``user`` words more."""
    sim, total, by_kind, counted = _climate_wire(sweeps=2)
    assert sim.ocean.array.layout.borders == (2, 2, 2, 2)
    assert total == (20, 13120)
    assert by_kind == {
        HALO_BULK_KIND: (12, 12 * (2 * 512 + 64)),
        "server_request": (8, 64),
    }
    assert by_kind[HALO_BULK_KIND] == _modelled_halo(sim, 2)
    assert counted == {
        "compiled": 0, "strips_sent": 12, "strips_claimed": 12,
        "pending_rendezvous": 0,
    }

    meter = meter_on(sim.rt.machine)
    for domain in (sim.ocean, sim.atmosphere):
        result = sim.rt.call(
            domain.processors,
            heat_steps,
            [domain.grid_rows, domain.grid_cols, 2,
             Local(domain.array.array_id), Reduce("double", 1, "max")],
        )
        assert result.status is Status.OK
    assert meter.snapshot()["by_kind"] == {
        HALO_BULK_KIND: (12, 13056),
        "user": (12, 96),
    }


def test_climate_wire_at_one_sweep_a_step_is_pinned():
    """``sweeps_per_step=1`` is the depth-1 configuration: one phase a
    call, each strip one row.  2 domains x 1 phase x 6 edges = 12
    ``halo_bulk`` of 512 + 64 B = 6912 B, + the same 8 one-word
    ``server_request``: 20 messages, 6976 bytes.  (Two such phases a
    call — 24 strips, 13824 B — were the 32 / 13888 the two-sweep op
    cost with 1-deep borders.)"""
    sim, total, by_kind, counted = _climate_wire(sweeps=1)
    assert sim.ocean.array.layout.borders == (1, 1, 1, 1)
    assert total == (20, 6976)
    assert by_kind == {
        HALO_BULK_KIND: (12, 12 * (512 + 64)),
        "server_request": (8, 64),
    }
    assert by_kind[HALO_BULK_KIND] == _modelled_halo(sim, 1)
    assert counted == {
        "compiled": 0, "strips_sent": 12, "strips_claimed": 12,
        "pending_rendezvous": 0,
    }


class _DropFirstBatch(FaultPlan):
    """Deterministically drop the first ``array_batch`` message routed."""

    def decide(self, message, channel_ordinal):
        if message.kind == ARRAY_BATCH_KIND and not self.tripped[0]:
            self.tripped[0] = True
            return FaultDecision(drop=True)
        return FaultDecision()


class _DuplicateBatches(FaultPlan):
    """Deliver every ``array_batch`` message twice."""

    def decide(self, message, channel_ordinal):
        if message.kind == ARRAY_BATCH_KIND:
            return FaultDecision(duplicate=True)
        return FaultDecision()


def _plan(cls):
    plan = cls(seed=0)
    object.__setattr__(plan, "tripped", [False])
    return plan


class TestFaultInterplay:
    def test_dropped_batch_retries_as_one_unit(self, machine):
        perf = get_perf_layer(machine)
        perf.retry_timeout = 0.3
        arr = make_array(machine, replication=0)
        # Faulty layer below the meter: the meter then counts every routed
        # attempt, including the one the fault layer swallows.
        ft = FaultyTransport(machine, _plan(_DropFirstBatch)).install()
        meter = meter_on(machine)
        try:
            for i in range(4):
                arr[7, 4 + i] = float(i)  # section 3, remote owner
            flushed = am_user.flush_writes(machine)
            assert flushed == 4
            # The drop consumed one whole batch; the retry re-shipped the
            # SAME four writes as a single second message — never as four
            # per-element messages.
            assert ft.stats.dropped == 1
            assert perf.coalescer.retries == 1
            assert kind_count(meter, ARRAY_BATCH_KIND) == 2
            assert arr.read_region([(7, 8), (4, 8)]).tolist() == [
                [0.0, 1.0, 2.0, 3.0]
            ]
        finally:
            ft.uninstall()
            machine.transport_stack.remove(meter)

    def test_duplicated_batch_applies_exactly_once(self, machine):
        arr = make_array(machine, replication=1)
        ft = FaultyTransport(machine, _plan(_DuplicateBatches)).install()
        meter = meter_on(machine)  # after creation: seeding not counted
        try:
            for i in range(4):
                arr[7, 4 + i] = float(i)  # section 3, one backup
            am_user.flush_writes(machine)
            assert ft.stats.duplicated == 1
            # The duplicate delivery is rejected by the owner's sequence
            # check: an applied batch ships one replica update per backup,
            # and the section has one backup — a second apply would have
            # shipped a second.
            assert kind_count(meter, ARRAY_BATCH_KIND) == 1
            assert kind_count(meter, REPLICA_UPDATE_KIND) == 1
            assert arr.read_region([(7, 8), (4, 8)]).tolist() == [
                [0.0, 1.0, 2.0, 3.0]
            ]
        finally:
            ft.uninstall()
            machine.transport_stack.remove(meter)

    def test_batch_to_dead_owner_without_recovery_is_lost(self, machine):
        perf = get_perf_layer(machine)
        perf.retry_timeout = 0.2
        perf.max_retries = 1
        arr = make_array(machine, replication=0)
        arr[7, 7] = 1.0  # queued against section 3
        machine.fail(3)
        am_user.flush_writes(machine)
        # No recovery coordinator installed: the owner stays dead and the
        # batch is accounted as lost — the documented write-behind window.
        assert perf.coalescer.lost_batches == 1
