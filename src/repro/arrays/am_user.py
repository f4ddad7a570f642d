"""Paper-faithful library procedures for distributed arrays (§4.2).

Each procedure issues the corresponding array-manager server request and
waits for it to be serviced before returning — the library-procedure
discipline of §5.1.2, which lets callers sequence distributed-array
manipulations without explicitly testing Status variables.

Signatures mirror §4.2 with the out-parameters returned as Python values:
``create_array`` returns ``(array_id, status)``, ``read_element`` returns
``(element, status)``, and so on.  Callers may also pass their own
definitional variables for the out-parameters (``array_id_out=``,
``status_out=``) to use PCN-style dataflow synchronisation.

The ``processor`` argument is the ``@Processor`` annotation: the node the
request is made *on*.  Per §3.2.1.5, array creation may run on any
processor; all other global operations may run on the creating processor or
any processor holding a local section, with identical results — the tests
verify that observational equivalence.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.arrays.manager import get_array_manager
from repro.arrays.record import ArrayID
from repro.pcn.defvar import DefVar
from repro.status import ProcessorFailedError, SectionLostError, Status
from repro.vp.machine import Machine


def _serve(
    machine: Machine,
    request_type: str,
    processor: int,
    status_out: Optional[DefVar],
    *ins: Any,
    **out: Optional[DefVar],
) -> Any:
    """One library procedure (§5.1.2): issue ``request_type`` on
    ``processor`` and wait until it has been serviced.

    Every array-manager request takes its in-parameters ``ins``, then its
    out variable if it has one, then its status variable.  ``out`` is at
    most one ``Name=variable`` — the thesis' name for the out-parameter
    and the caller's own definitional variable for it — and, like
    ``status_out``, a variable given as None is made here.  Returns the
    Status, after the out value when there is one.

    A request that fails on the dead owner of a lost section raises
    :class:`~repro.status.SectionLostError` instead
    (:func:`_raise_if_lost`).
    """
    status_var = DefVar("Status") if status_out is None else status_out
    if out:
        ((name, given),) = out.items()
        out_var = DefVar(name) if given is None else given
        variables = (out_var, status_var)
    else:
        variables = (status_var,)
    try:
        machine.server.request(request_type, *ins, *variables, processor=processor)
    except ProcessorFailedError as failure:
        _raise_if_lost(machine, ins[0], failure)
        raise
    status = status_var.read()
    if not isinstance(status, Status):
        status = Status(status)  # an Enum call: only for a bare int
    return (out_var.read(), status) if out else status


def _raise_if_lost(
    machine: Machine, array_id: Any, failure: ProcessorFailedError
) -> None:
    """Raise :class:`~repro.status.SectionLostError` when the processor
    ``failure`` names owns a lost section of ``array_id``: that failure
    is final, not one a retry outlives.  Reached only by a request that
    already failed, so a machine with no failed processor never runs it.

    Asked under the state lock, so a recovery under way finishes first:
    the answer is the one it leaves, and a retry after a
    ``ProcessorFailedError`` finds the rebuilt membership."""
    state = get_array_manager(machine).durability_state(array_id)
    if state is None:
        return
    with state.lock:
        for section, cause in state.lost.items():
            if state.processors[section] == failure.processor:
                raise SectionLostError(section, cause) from failure


def create_array(
    machine: Machine,
    type_name: str,
    dimensions: Sequence[int],
    processors: Sequence[int],
    distrib_info: Sequence,
    border_info: Any = None,
    indexing_type: str = "row",
    processor: int = 0,
    replication: int = 0,
    array_id_out: Optional[DefVar] = None,
    status_out: Optional[DefVar] = None,
) -> tuple[Optional[ArrayID], Status]:
    """am_user:create_array (§4.2.1).

    ``replication=k`` makes the array durable: each section gets ``k``
    deterministic backup mirrors, maintained by ``replica_update``
    messages on every write (see ``docs/fault_model.md``, Durable arrays).
    """
    get_array_manager(machine)
    return _serve(
        machine, "create_array", processor, status_out, type_name, dimensions,
        processors, distrib_info, border_info, indexing_type, replication,
        Array_ID=array_id_out,
    )


def free_array(
    machine: Machine,
    array_id: ArrayID,
    processor: int = 0,
    status_out: Optional[DefVar] = None,
) -> Status:
    """am_user:free_array (§4.2.2)."""
    return _serve(machine, "free_array", processor, status_out, array_id)


def read_element(
    machine: Machine,
    array_id: ArrayID,
    indices: Sequence[int],
    processor: int = 0,
    element_out: Optional[DefVar] = None,
    status_out: Optional[DefVar] = None,
) -> tuple[Any, Status]:
    """am_user:read_element (§4.2.3)."""
    return _serve(
        machine, "read_element", processor, status_out,
        array_id, tuple(indices), Element=element_out,
    )


def write_element(
    machine: Machine,
    array_id: ArrayID,
    indices: Sequence[int],
    element: Any,
    processor: int = 0,
    status_out: Optional[DefVar] = None,
) -> Status:
    """am_user:write_element (§4.2.4)."""
    return _serve(
        machine, "write_element", processor, status_out,
        array_id, tuple(indices), element,
    )


def read_region(
    machine: Machine,
    array_id: ArrayID,
    region: Sequence[Sequence[int]],
    processor: int = 0,
    data_out: Optional[DefVar] = None,
    status_out: Optional[DefVar] = None,
) -> tuple[Any, Status]:
    """am_user:read_region — region-granular read (extension).

    ``region`` gives one half-open ``(start, stop)`` pair per dimension;
    the result is a dense NumPy array of the region's shape.  Costs one
    message per owning processor instead of one per element.
    """
    return _serve(
        machine, "read_region", processor, status_out,
        array_id, tuple(tuple(b) for b in region), Region=data_out,
    )


def write_region(
    machine: Machine,
    array_id: ArrayID,
    region: Sequence[Sequence[int]],
    data: Any,
    processor: int = 0,
    status_out: Optional[DefVar] = None,
) -> Status:
    """am_user:write_region — region-granular write (extension)."""
    return _serve(
        machine, "write_region", processor, status_out,
        array_id, tuple(tuple(b) for b in region), data,
    )


def get_local_block(
    machine: Machine,
    array_id: ArrayID,
    processor: int,
    block_out: Optional[DefVar] = None,
    status_out: Optional[DefVar] = None,
) -> tuple[Any, Status]:
    """am_user:get_local_block — ``(global origin, interior copy)`` of the
    section held by ``processor`` (extension; local view like find_local)."""
    return _serve(
        machine, "get_local_block", processor, status_out,
        array_id, Block=block_out,
    )


def find_local(
    machine: Machine,
    array_id: ArrayID,
    processor: int,
    section_out: Optional[DefVar] = None,
    status_out: Optional[DefVar] = None,
) -> tuple[Any, Status]:
    """am_user:find_local (§4.2.5).

    Requires a local view: ``processor`` must hold a section of the array.
    Users rarely call this directly; the distributed-call wrapper invokes it
    automatically (§5.2.2).
    """
    return _serve(
        machine, "find_local", processor, status_out,
        array_id, Local_section=section_out,
    )


def find_info(
    machine: Machine,
    array_id: ArrayID,
    which: str,
    processor: int = 0,
    out: Optional[DefVar] = None,
    status_out: Optional[DefVar] = None,
) -> tuple[Any, Status]:
    """am_user:find_info (§4.2.6)."""
    return _serve(
        machine, "find_info", processor, status_out, array_id, which, Out=out
    )


def verify_array(
    machine: Machine,
    array_id: ArrayID,
    n_dims: int,
    border_info: Any,
    indexing_type: str,
    processor: int = 0,
    status_out: Optional[DefVar] = None,
) -> Status:
    """am_user:verify_array (§4.2.7)."""
    return _serve(
        machine, "verify_array", processor, status_out,
        array_id, n_dims, border_info, indexing_type,
    )


def checkpoint_array(
    machine: Machine,
    array_id: ArrayID,
    processor: int = 0,
    snapshot_out: Optional[DefVar] = None,
    status_out: Optional[DefVar] = None,
) -> tuple[Any, Status]:
    """am_user:checkpoint_array — epoch-consistent snapshot (extension).

    Quiesces writers at an epoch barrier and returns an
    :class:`~repro.arrays.durability.ArraySnapshot`, which also becomes
    the array's latest checkpoint for replication-free recovery.
    """
    return _serve(
        machine, "checkpoint_array", processor, status_out,
        array_id, Snapshot=snapshot_out,
    )


def restore_array(
    machine: Machine,
    array_id: ArrayID,
    snapshot: Any,
    processor: int = 0,
    status_out: Optional[DefVar] = None,
) -> Status:
    """am_user:restore_array — write a snapshot back under a fresh epoch
    (extension)."""
    return _serve(
        machine, "restore_array", processor, status_out, array_id, snapshot
    )


def migrate_sections(
    machine: Machine,
    array_id: ArrayID,
    assignments: Any,
    processor: int = 0,
    moved_out: Optional[DefVar] = None,
    status_out: Optional[DefVar] = None,
) -> tuple[Any, Status]:
    """am_user:migrate_sections — planned section migration (extension).

    ``assignments`` maps section number -> destination processor (or is a
    prebuilt :class:`~repro.arrays.placement.PlacementPlan`).  Returns
    ``(moved_sections, status)``; the move is transactional — on failure
    it is rolled back under a fresh epoch and status is ERROR.
    """
    return _serve(
        machine, "migrate_sections", processor, status_out,
        array_id, assignments, Moved=moved_out,
    )


def rebalance_array(
    machine: Machine,
    array_id: ArrayID,
    targets: Optional[Sequence[int]] = None,
    processor: int = 0,
    moved_out: Optional[DefVar] = None,
    status_out: Optional[DefVar] = None,
) -> tuple[Any, Status]:
    """am_user:rebalance_array — repair/respread placement (extension).

    Moves sections off dead owners (and, when ``targets`` is given, off
    processors outside the target set) onto spare processors — including
    ones added at runtime with ``Machine.add_processor()``.
    """
    return _serve(
        machine, "rebalance_array", processor, status_out, array_id,
        None if targets is None else tuple(int(t) for t in targets),
        Moved=moved_out,
    )


def distributed_call(*args, **kwargs):
    """am_user:distributed_call (§4.3.1) — re-exported from
    :mod:`repro.calls.api` to mirror the paper's single ``am_user`` module."""
    from repro.calls.api import distributed_call as _impl

    return _impl(*args, **kwargs)


# -- perf layer (repro.perf, extension) ---------------------------------------


def flush_writes(machine: Machine, array_id: Optional[ArrayID] = None) -> int:
    """Force pending write-behind writes out (an explicit flush point).

    Reads, collectives, checkpoints, and distributed-call boundaries
    flush implicitly (docs/performance.md); this is the manual barrier
    for callers inspecting storage through side channels.  Returns the
    number of writes flushed.
    """
    perf = getattr(machine, "_perf", None)
    if perf is None:
        return 0
    return perf.coalescer.flush(array_id)


def halo_plan(machine: Machine, array_id: ArrayID) -> Optional[Any]:
    """Compile (or fetch the cached) halo-exchange :class:`CommPlan` for
    one array (:mod:`repro.perf.commplan`).

    Returns None when the array is out of a plan's scope: unknown array,
    rank > 2, or missing/non-uniform borders.  A plan is its layout's:
    the registry keeps it across recovery, migration and rebalance, and
    compiles it again only when ``verify_array`` has changed the layout.
    """
    get_array_manager(machine)
    return machine._perf.plans.halo_plan(array_id)


def write_region_targeted(
    machine: Machine,
    array_id: ArrayID,
    region: Sequence[Sequence[int]],
    data: Any,
) -> Status:
    """Region write fused per owner: one ``write_region_local`` request
    issued *at* each owning processor, carrying exactly the cells of
    ``region`` that owner holds (``ArrayLayout.region_sections``).

    From task-parallel level the per-owner requests execute locally at
    their targets — zero intermediary hops — where the single-hop
    ``write_region`` ships the whole region through one manager and back
    out per owner.  Validation is ``write_region``'s: an out-of-range
    region or wrong-shaped ``data`` is ``Status.INVALID`` and no owner is
    asked.  Epoch fencing still happens at each owner
    (``write_region_local`` refuses stale records with ``STALE_EPOCH``).
    """
    manager = get_array_manager(machine)
    state = manager.durability_state(array_id)
    if state is None:
        # Unknown here (foreign or freed array): the single-hop path
        # produces the authoritative NOT_FOUND.
        return write_region(machine, array_id, region, data)
    try:
        return manager.region_write(
            array_id, state.layout, state.type_name, state.processors,
            region, data,
        )
    except ProcessorFailedError as failure:
        _raise_if_lost(machine, array_id, failure)
        raise

