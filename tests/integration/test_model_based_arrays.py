"""Model-based testing of the array manager.

Hypothesis drives random sequences of distributed-array operations
(element and region writes, reads from random owners, border
verifications, bulk transfers, checkpoint/restore, distributed-call
mutations, planned migrations onto two spare processors) on arrays of
replication 0, 1 or 2 against a plain NumPy oracle; the distributed array
and the oracle must never disagree, every backup mirror must hold what
its owner holds, and once the array is freed no processor may hold
anything of it.  This catches cross-operation interactions no
example-based test enumerates.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.arrays import am_user, am_util
from repro.arrays.durability import replica_store_for
from repro.arrays.manager import _records, get_array_manager
from repro.calls import Local, distributed_call
from repro.status import Status
from repro.vp.machine import Machine

N = 8  # global vector length
P = 4
LOCAL = N // P  # elements per section
SPARES = 2  # processors a section can migrate onto

_MACHINE = Machine(P + SPARES)
am_util.load_all(_MACHINE)
_PROCS = am_util.node_array(0, 1, P)


write_op = st.tuples(
    st.just("write"), st.integers(0, N - 1),
    st.floats(-100, 100, allow_nan=False),
)
read_op = st.tuples(st.just("read"), st.integers(0, N - 1), st.integers(0, P - 1))
verify_op = st.tuples(st.just("verify"), st.integers(0, 2))
bulk_op = st.tuples(st.just("bulk"), st.integers(0, 2 ** 31 - 1))
region_op = st.tuples(
    st.just("region"), st.integers(0, N - 1), st.integers(1, N),
    st.integers(0, 2 ** 31 - 1),
)
checkpoint_op = st.tuples(st.just("checkpoint"))
restore_op = st.tuples(st.just("restore"))
call_op = st.tuples(st.just("call_add"), st.floats(-10, 10, allow_nan=False))
# (section, which of the processors then holding no section takes it)
migrate_op = st.tuples(
    st.just("migrate"), st.integers(0, P - 1), st.integers(0, SPARES - 1)
)

operations = st.lists(
    st.one_of(
        write_op, read_op, verify_op, bulk_op, region_op, checkpoint_op,
        restore_op, call_op, migrate_op,
    ),
    min_size=1,
    max_size=25,
)


def _check_sections(aid, oracle, mirrors_current, settled):
    """Every record, the members' and the creator's, has the state's
    layout and every member's section its borders; owner interior ==
    every backup's mirror == oracle section.

    ``settled`` is False right after a queued element write: the write
    has not reached its owner yet, so only owner == mirrors is checked
    (it holds mid-batch too) and pending writes stay pending for the next
    operation to interleave with; every other step flushes first and
    checks all three."""
    if settled:
        am_user.flush_writes(_MACHINE, aid)
    manager = get_array_manager(_MACHINE)
    state = manager.durability_state(aid)
    for holder in {*state.processors, aid.creating_processor}:
        record = manager._lookup(_MACHINE.processor(holder), aid)
        assert record.layout == state.layout, holder
    for section, owner in enumerate(state.processors):
        record = manager._lookup(_MACHINE.processor(owner), aid)
        assert record.section.borders == state.layout.borders, owner
        interior = record.section.interior()
        if settled:
            expected = oracle[section * LOCAL : (section + 1) * LOCAL]
            assert np.array_equal(interior, expected)
        if state.replica_map is None or not mirrors_current:
            continue
        for backup in state.replica_map.backups_for(section):
            _epoch, mirror = replica_store_for(
                _MACHINE.processor(backup)
            ).fetch(aid, section)
            assert np.array_equal(mirror, interior)


def _add_program(ctx, delta, sec):
    sec.interior()[:] += delta


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(operations, st.sampled_from([0, 1, 2]))
# Pinned interleavings: a fused two-write batch reaching the mirrors, and
# mirrors going stale under a distributed call until a restore reseeds.
@example([("write", 0, 1.0), ("write", 1, 2.0), ("read", 0, 0)], 1)
@example(
    [
        ("checkpoint",), ("call_add", 1.0), ("write", 3, 5.0),
        ("restore",), ("region", 1, 4, 7),
    ],
    2,
)
# A section moved off a plain owner and one moved off the creating
# processor, with the operations that must follow the membership after.
@example(
    [
        ("write", 2, 3.0), ("migrate", 1, 0), ("call_add", 1.0),
        ("read", 3, 1), ("migrate", 0, 1), ("bulk", 5), ("verify", 1),
        ("checkpoint",), ("migrate", 1, 0), ("restore",), ("read", 0, 0),
    ],
    1,
)
def test_property_array_tracks_numpy_oracle(ops, replication):
    aid, st_create = am_user.create_array(
        _MACHINE, "double", (N,), _PROCS, ["block"], replication=replication
    )
    assert st_create is Status.OK
    oracle = np.zeros(N)
    saved = None  # (snapshot, oracle at the checkpoint)
    # Distributed-call mutations write through find_local and do not
    # update mirrors by design: after one, mirrors are compared again only
    # once a whole-section write (bulk, restore) or a migration's reseed
    # round has made them current.
    mirrors_current = True
    state = get_array_manager(_MACHINE).durability_state(aid)
    try:
        _check_sections(aid, oracle, mirrors_current, settled=True)
        for op in ops:
            kind = op[0]
            owners = state.processors  # section number -> its processor
            if kind == "write":
                _, index, value = op
                status = am_user.write_element(
                    _MACHINE, aid, (index,), float(value)
                )
                assert status is Status.OK
                oracle[index] = value
            elif kind == "read":
                _, index, section = op
                value, status = am_user.read_element(
                    _MACHINE, aid, (index,), processor=owners[section]
                )
                assert status is Status.OK
                assert value == oracle[index]
            elif kind == "verify":
                _, border = op
                status = am_user.verify_array(
                    _MACHINE, aid, 1, [border, border], "row"
                )
                assert status is Status.OK  # data must survive migration
            elif kind == "bulk":
                _, seed = op
                data = np.random.default_rng(seed).uniform(-50, 50, N)
                status = am_user.write_region(_MACHINE, aid, [(0, N)], data)
                assert status is Status.OK
                oracle = data.copy()
                mirrors_current = True
            elif kind == "region":
                _, start, length, seed = op
                stop = min(N, start + length)
                data = np.random.default_rng(seed).uniform(
                    -50, 50, stop - start
                )
                status = am_user.write_region(
                    _MACHINE, aid, [(start, stop)], data
                )
                assert status is Status.OK
                oracle[start:stop] = data
            elif kind == "checkpoint":
                snapshot, status = am_user.checkpoint_array(_MACHINE, aid)
                assert status is Status.OK
                assert np.array_equal(snapshot.assemble(), oracle)
                saved = (snapshot, oracle.copy())
            elif kind == "restore":
                if saved is None:
                    continue
                status = am_user.restore_array(_MACHINE, aid, saved[0])
                assert status is Status.OK
                oracle = saved[1].copy()
                mirrors_current = True
            elif kind == "migrate":
                _, section, spare = op
                spares = sorted(set(range(P + SPARES)) - set(owners))
                moved, status = am_user.migrate_sections(
                    _MACHINE, aid, {section: spares[spare]}
                )
                assert (moved, status) == ([section], Status.OK)
                assert state.processors[section] == spares[spare]
                # The move ends with every owner reseeding its mirrors.
                mirrors_current = True
            else:  # call_add
                _, delta = op
                result = distributed_call(
                    _MACHINE, list(owners), _add_program,
                    [float(delta), Local(aid)],
                )
                assert result.status is Status.OK
                oracle += delta
                mirrors_current = False
            _check_sections(
                aid, oracle, mirrors_current, settled=kind != "write"
            )

        # Final full sweep: every element agrees with the oracle.
        final = np.array(
            [am_user.read_element(_MACHINE, aid, (i,))[0] for i in range(N)]
        )
        assert np.allclose(final, oracle, atol=1e-9)
    finally:
        am_user.free_array(_MACHINE, aid)
    # Nothing left after the free, wherever the sections have been.
    for p in range(_MACHINE.num_nodes):
        node = _MACHINE.processor(p)
        assert aid not in _records(node)
        assert replica_store_for(node).sections_for(aid) == []
