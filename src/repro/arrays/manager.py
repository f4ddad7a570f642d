"""The array manager: per-processor runtime support for distributed arrays
(§3.2.2.2, §5.1.1).

The array manager consists of one server process per processor; all requests
to create or manipulate distributed arrays are handled by the *local*
array-manager process, which communicates with its peers as needed.  The
request types implemented here are exactly those enumerated in §5.1.1:

================  ==========================================================
create_local      create a local section on one processor
create_array      create the whole array (create_local on every processor)
free_local        free one local section
free_array        free the whole array (free_local everywhere)
read_element_local / read_element      element read via global indices
write_element     element write via global indices: validated and queued,
                  then lands in an ``array_batch`` or is carried by a
                  request for its section (a read, a region's share)
find_local        reference to the local section on *this* processor
copy_local        reallocate a local section with different borders
verify_array      compare borders, copy_local everywhere on mismatch
find_info         dimensions / processors / indexing / ... (§4.2.6)
================  ==========================================================

Results and Status values are returned by defining definitional variables
supplied in the request — the bidirectional server communication of §5.1.1.
A request for one section's data — ``read_element_local``,
``read_region_local``, ``write_region_local`` — names that section, as a
coalesced write batch and a halo strip do, and is answered only by the
section's holder (``_resolve``'s holder check).  An element read and a
region's shares, made on the processor that queued writes for their section,
carry that queue with them (``WriteCoalescer.carry``): the
holder commits it before it serves the request, and a batch not answered
``"ok"`` there goes by the perf layer's route after.

One path per concern: every handler starts from ``_resolve`` (the record, or
NOT_FOUND answered); every write — element, region, restore,
coalesced batch alone or carried — is a list of ``(target, value)`` mutations
(:mod:`repro.perf.coalescer`) handed to ``_commit``, the only code that takes
the record lock for a write, checks the epoch fence, assigns into the section
and replicates; requests, and the batches they carry, are counted once, in
the ``capabilities()`` wrapper.
"""

from __future__ import annotations

import functools
import itertools
import threading
from types import MappingProxyType
from typing import Any, Optional, Sequence

import numpy as np

from repro.arrays.borders import BorderSpecError, resolve_borders
from repro.arrays.decomposition import DecompositionError, compute_grid
from repro.arrays.durability import (
    REPLICA_UPDATE_KIND,
    ArraySnapshot,
    DurabilityState,
    ReplicaMap,
    ReplicaUpdate,
    replica_store_for,
)
from repro.arrays.layout import ArrayLayout, normalize_indexing
from repro.arrays.local_section import LocalSection, dtype_for
from repro.arrays.placement import (
    MIGRATE_KIND,
    RECOVERY_KIND,
    MigrationError,
    PlacementPlan,
    SectionMover,
)
from repro.arrays.record import SERIALS, ArrayID, ArrayRecord
from repro.obs.spans import NOOP_SPAN, span as obs_span
from repro.perf import (
    ARRAY_BATCH_KIND,
    HALO_BULK_KIND,
    PerfLayer,
    define_once,
)
from repro.perf.coalescer import apply_mutations
from repro.pcn.defvar import DefVar, Tally
from repro.status import ProcessorFailedError, ReproError, Status
from repro.vp import fabric
from repro.vp.machine import Machine
from repro.vp.message import Message
from repro.vp.processor import VirtualProcessor

# Envelope kind for the rejoin protocol: membership rewrites pushed onto
# a falsely-suspected VP leaving quarantine.  Exempt from the machine's
# "queue" dead_send_policy (a quarantined dest is still a suspect) and
# catalogued in docs/transport.md.
REJOIN_KIND = "rejoin"

_RECORDS_KEY = "am.records"
# What a lookup reads on a node that has never held a record.
_NO_RECORDS = MappingProxyType({})


def _records(node: VirtualProcessor) -> dict[ArrayID, ArrayRecord]:
    """This node's record table, made by whichever handler first needs
    one: two handlers on a fresh node get the same table."""
    table = node.load_default(_RECORDS_KEY)
    if table is None:
        table = node.load_or_store(_RECORDS_KEY, {})
    return table


def _define(var: Optional[DefVar], value: Any) -> None:
    if var is not None:
        var.define(value)


# The status a request answers when its commit is refused.
_REFUSED = {"not_found": Status.NOT_FOUND, "stale": Status.STALE_EPOCH}


def _fail(status: Optional[DefVar], code: Status, *outs: Any) -> None:
    """Answer a request that produced nothing: every out-parameter is
    defined as None and ``status`` as ``code``."""
    for out in outs:
        _define(out, None)
    _define(status, code)


class ArrayManager:
    """The machine-wide array-manager service.

    ``install_array_manager(machine)`` registers the capabilities with the
    machine's server (the ``load "am"`` of §B.3); library procedures in
    :mod:`repro.arrays.am_user` then issue server requests against it.
    """

    def __init__(self, machine: Machine, trace: bool = False) -> None:
        self.machine = machine
        self.trace_enabled = trace
        self.trace_log: list[tuple] = []
        self._trace_lock = threading.Lock()
        # Request counters: the simulated-cost model for FIG-3.9.
        self.request_counts: dict[str, int] = {}
        # Machine-wide durability bookkeeping: one DurabilityState per
        # array (authoritative epoch, membership, replica map, latest
        # checkpoint, recovery statistics).
        self._durability: dict[ArrayID, DurabilityState] = {}
        self._durability_lock = threading.Lock()
        self._checkpoint_serials = itertools.count()
        # The shared section-migration engine (repro.arrays.placement):
        # failure recovery and planned migration both execute their
        # placement plans through this one mover.
        self.mover = SectionMover(machine)
        # Planned-migration log, surfaced via diagnostics and tests.
        self.migrations: list[dict] = []

    # -- bookkeeping ----------------------------------------------------------

    def _instrumented(self, name: str, handler) -> Any:
        """Wrap one server handler: count (and, under ``am_debug``, log
        ``(name, vp, first parameter)``) the request, and the write batch
        it carries when it carries one, then run it in an ``am:<name>``
        observability span.

        The handler executes on its target node, so the span lands on that
        VP's track and parents onto the requester's span carried by the
        routed message.  What does not change per request — the machine,
        the counter table and its lock — is bound here, when the capability
        is loaded; one attribute probe per request while observation is
        off.
        """
        label = f"am:{name}"
        machine = self.machine
        counts = self.request_counts
        lock = self._trace_lock

        @functools.wraps(handler)
        def traced(
            node: VirtualProcessor, *parameters: Any, carried: Any = None
        ) -> Any:
            with lock:
                counts[name] = counts.get(name, 0) + 1
                if self.trace_enabled:
                    self.trace_log.append((name, node.number, *parameters[:1]))
            if carried is not None:
                # The write batch the request carries is counted, and
                # handed on, as the batch it is.
                self._count_batch(node, carried)
                run = functools.partial(handler, carried=carried)
            else:
                run = handler
            if machine._observer is None:
                # Observation off: skip the span plumbing entirely rather
                # than paying for a no-op context manager per request.
                return run(node, *parameters)
            with obs_span(machine, label, vp=node.number):
                return run(node, *parameters)

        return traced

    def capabilities(self) -> dict:
        handlers = {
            "create_array": self.create_array,
            "create_local": self.create_local,
            "free_array": self.free_array,
            "free_local": self.free_local,
            "read_element": self.read_element,
            "read_element_local": self.read_element_local,
            "write_element": self.write_element,
            "find_local": self.find_local,
            "find_info": self.find_info,
            "copy_local": self.copy_local,
            "verify_array": self.verify_array,
            "read_region": self.read_region,
            "read_region_local": self.read_region_local,
            "write_region": self.write_region,
            "write_region_local": self.write_region_local,
            "get_local_block": self.get_local_block,
            "checkpoint_array": self.checkpoint_array,
            "restore_array": self.restore_array,
            "restore_local": self.restore_local,
            "replica_fetch": self.replica_fetch,
            "adopt_section": self.adopt_section,
            "update_membership_local": self.update_membership_local,
            "reseed_replicas_local": self.reseed_replicas_local,
            "yield_section_local": self.yield_section_local,
            "migrate_sections": self.migrate_sections,
            "rebalance_array": self.rebalance_array,
        }
        return {
            name: self._instrumented(name, handler)
            for name, handler in handlers.items()
        }

    # -- helpers ---------------------------------------------------------------

    def _lookup(
        self, node: VirtualProcessor, array_id: ArrayID
    ) -> Optional[ArrayRecord]:
        return node.load_default(_RECORDS_KEY, _NO_RECORDS).get(array_id)

    def _resolve(
        self,
        node: VirtualProcessor,
        array_id: Any,
        status: Optional[DefVar],
        *outs: Any,
        local: bool = False,
        section: Optional[int] = None,
    ) -> Optional[ArrayRecord]:
        """The request preamble: this node's record of ``array_id``, or
        None after answering NOT_FOUND.  With ``local=True`` only a record
        holding a local section will do; with ``section`` given only the
        section's holder's — the holder check every unit of work for one
        section passes (its requests, write batches and halo strips): the
        node holds section ``s`` when its own record says so,
        ``record.processors[s] == node.number``, and it has the storage.
        ``array_id`` is caller input: anything that is not an ArrayID is
        reported through Status, not an exception."""
        record = (
            node.heap.get(_RECORDS_KEY, _NO_RECORDS).get(array_id)
            if isinstance(array_id, ArrayID)
            else None
        )
        if (
            record is None
            or ((local or section is not None) and record.section is None)
            or (
                section is not None
                and record.processors[section] != node.number
            )
        ):
            _fail(status, Status.NOT_FOUND, *outs)
            return None
        return record

    def record_for_section(
        self, node: VirtualProcessor, section: Any
    ) -> Optional[ArrayRecord]:
        """Reverse lookup: the record whose live local section *is*
        ``section`` (object identity) on this node.  Lets SPMD kernels
        that were handed a bare :class:`LocalSection` recover the array
        it belongs to; its one caller is how a kernel engages a halo
        plan, :meth:`repro.perf.commplan.PlanRegistry.engage`."""
        if section is None:
            return None
        # A lookup: a node that never held a record keeps no table.
        records = node.load_default(_RECORDS_KEY, _NO_RECORDS)
        for record in list(records.values()):
            if record.section is section:
                return record
        return None

    def _fan_out(
        self,
        request_type: str,
        holders,
        *parameters: Any,
        skip_failed: bool = False,
        carried: Optional[dict] = None,
    ) -> bool:
        """One ``request_type`` request served by every holder
        (:meth:`ServerRegistry.request_each`); True when all of them
        answered OK.  ``holders`` is the processors to ask (each once,
        whatever the repeats) or a mapping processor -> that holder's own
        parameters (its share of a region, say), passed after the common
        ``parameters``.  The holders answer by defining one shared status,
        passed last, which becomes the worst of their codes.  A failed
        holder raises :class:`ProcessorFailedError` unless ``skip_failed``,
        which passes over it and asks the rest.  ``carried`` maps a holder
        to the write batch its request carries."""
        if not isinstance(holders, dict):
            holders = dict.fromkeys(holders, ())
        status = Tally(len(holders), max, Status.OK, request_type)
        self.machine.server.request_each(
            request_type, holders, parameters, status, skip_failed, carried
        )
        return status.read() == Status.OK

    # -- durability plumbing ---------------------------------------------------

    def durability_state(self, array_id: Any) -> Optional[DurabilityState]:
        """The array's durability record; None for a freed or foreign
        array and for anything that is not an :class:`ArrayID`.

        One ``dict.get``, without the lock: it is atomic, and only the
        writers, which hold the lock, change or iterate the table."""
        if not isinstance(array_id, ArrayID):
            return None
        return self._durability.get(array_id)

    def durability_states(self) -> list[tuple[ArrayID, DurabilityState]]:
        with self._durability_lock:
            return sorted(self._durability.items(), key=lambda kv: kv[0])

    def durability_diagnostics(self) -> dict:
        """Per-array durability snapshot for ``Machine.diagnostics()``."""
        return {
            str(array_id.as_tuple()): state.diagnostics()
            for array_id, state in self.durability_states()
        }

    def _replicate(
        self, node: VirtualProcessor, record: ArrayRecord, mutations: Sequence
    ) -> None:
        """Ship one epoch-stamped ``replica_update`` per backup of this
        node's section, carrying ``mutations`` whole — a coalescer flush
        costs one mirror message per backup, not one per write.  Caller
        holds ``record.lock``, so the update carries a consistent (data,
        epoch) pair.  Dead backups are skipped: recovery rewrites the
        replica map when membership changes."""
        if record.replication <= 0 or record.replica_map is None:
            return
        section_number = record.section_number_for(node.number)
        update = ReplicaUpdate(
            array_id=record.array_id,
            section=section_number,
            epoch=record.epoch,
            shape=record.layout.local_dims,
            type_name=record.type_name,
            mutations=tuple(mutations),
        )
        for backup in record.replica_map.backups_for(section_number):
            try:
                self.machine.send(
                    node.number,
                    backup,
                    update,
                    tag=("replica", record.array_id.as_tuple()),
                    kind=REPLICA_UPDATE_KIND,
                )
            except ProcessorFailedError:
                continue

    def _on_replica_update(self, message: Message) -> None:
        """Final delivery of a ``replica_update`` message: apply it to the
        backup's mirror, counting epoch-stale rejects per array."""
        update: ReplicaUpdate = message.payload
        node = self.machine.processor(message.dest)
        applied = replica_store_for(node).apply(update)
        observer = getattr(self.machine, "_observer", None)
        if observer is not None:
            observer.replica_update()
        if not applied:
            state = self.durability_state(update.array_id)
            if state is not None:
                state.note_stale()

    # -- the one mutation path -------------------------------------------------

    def _commit(
        self,
        node: VirtualProcessor,
        record: ArrayRecord,
        mutations: Sequence,
        status: Optional[DefVar] = None,
        epoch: Optional[int] = None,
        carried: Any = None,
    ) -> str:
        """The one owner-side write sequence (§3.2.1.5), whatever the
        granularity: under ``record.lock``, the holder check again (the
        section may have left since the request resolved the record) and
        the epoch fence, replay ``mutations`` (the ``(target, value)``
        pairs of :mod:`repro.perf.coalescer`) into the interior,
        replicate; then define ``status``.  Returns ``"ok"``,
        ``"not_found"`` or ``"stale"``, the answers a write batch gets.

        ``carried`` is a write batch for this section — sent alone, or
        carried by the request this commit serves — whose ops land first,
        in the same commit: one lock, one claim of its sequence number,
        one replica update per backup for both, and none when nothing
        lands.  The claim fails for a batch applied before (a duplicate or
        a late original), whose ops are then skipped; ``carried.done`` is
        answered with the verdict.

        ``epoch`` is given only by a restore, which installs it (mirrors
        are reseeded under it) and is deliberately *not* fenced — the
        restore is what makes this record current.

        A kill fired by a replica update runs its recovery once the record
        lock is released (``Machine.holding_failures``): recovery takes
        ``state.lock``, which a migration may hold while it waits for this
        lock.
        """
        with self.machine.holding_failures, record.lock:
            if epoch is not None:
                record.epoch = int(epoch)
            if record.section is None:
                verdict = "not_found"
            elif epoch is None and self._fence_stale(record):
                verdict = "stale"
            else:
                verdict = "ok"
                if carried is not None and self.machine._perf.coalescer.should_apply(
                    (carried.array_id, carried.section), carried.seq
                ):
                    mutations = [*carried.ops, *mutations]
                if mutations:
                    # One interior view per commit, however many mutations.
                    apply_mutations(record.section.interior(), mutations)
                    self._replicate(node, record, mutations)
        if carried is not None:
            define_once(carried.done, verdict)
        if verdict == "ok":
            self._write_status(node, status)
        elif verdict == "stale":
            # Outside record.lock: note_fenced takes state.lock, and the
            # mover's lock order is state -> record.
            self._refuse_stale(record.array_id, status)
        else:
            _fail(status, Status.NOT_FOUND)
        return verdict

    def _count_batch(self, node: VirtualProcessor, batch: Any) -> None:
        """Count (and, under ``am_debug``, log) one write batch reaching
        ``node``, alone or carried by a request."""
        with self._trace_lock:
            counts = self.request_counts
            counts["array_batch"] = counts.get("array_batch", 0) + 1
            if self.trace_enabled:
                self.trace_log.append(
                    ("array_batch", node.number, batch.array_id)
                )

    def _apply_batch(self, dest: int, batch: Any) -> None:
        """Apply one coalesced write batch atomically on ``dest``, when it
        holds the batch's section: a :meth:`_commit` of the batch and
        nothing else.

        All sub-writes land in one commit; mirrors get one fused replica
        update per backup.  The per-queue sequence number makes
        application exactly-once: it is claimed only by a commit that
        lands, so a batch refused (``"not_found"``, ``"stale"``) is
        applied where the route re-sends it, and a duplicated or
        late-delivered batch (fault injection, retry racing the delayed
        original) was applied already, so it is answered ``"ok"`` and
        dropped.
        """
        machine = self.machine
        node = machine.processor(dest)
        self._count_batch(node, batch)
        record = self._resolve(node, batch.array_id, None, section=batch.section)
        if record is None:
            # Not the section's holder (it migrated away, the array was
            # freed, or it never lived here): the route re-sends the batch
            # to the owner read again.
            define_once(batch.done, "not_found")
            return
        # The span's attributes are built only when someone records them.
        batch_span = NOOP_SPAN if machine._observer is None else obs_span(
            machine, "am:array_batch", vp=node.number, ops=len(batch.ops)
        )
        with batch_span as span:
            self._commit(node, record, (), carried=batch)
            if record.replication > 0 and record.replica_map is not None:
                span.annotate(fused_replicas=True)

    def _on_array_batch(self, message: Message) -> None:
        """Final delivery of a ``kind="array_batch"`` message."""
        self._apply_batch(message.dest, message.payload)

    # -- epoch fencing ---------------------------------------------------------

    def _fence_stale(self, record: ArrayRecord) -> bool:
        """The fencing-token check (docs/fault_model.md §9): is this
        record's epoch behind the machine-wide authoritative epoch?

        A record left behind by a membership rewrite that could not
        reach its node — the minority side of a partition whose owner
        was falsely declared dead and replaced — carries the old epoch,
        so every commit it attempts is identifiable.  Reads ``state
        .epoch`` without the state lock (a single attribute read;
        taking ``state.lock`` under ``record.lock`` would invert the
        mover's lock order), so callers must treat a pass as
        best-effort ordering, exactly like a write racing the rewrite
        itself.
        """
        state = self.durability_state(record.array_id)
        return state is not None and record.epoch < state.epoch

    def _refuse_stale(self, array_id: ArrayID, status: Optional[DefVar]) -> None:
        """Account one fenced commit and report STALE_EPOCH.  Called
        *outside* ``record.lock`` (``note_fenced`` takes the state
        lock)."""
        state = self.durability_state(array_id)
        if state is not None:
            state.note_fenced()
        _define(status, Status.STALE_EPOCH)

    def _write_status(self, node: VirtualProcessor, status: DefVar) -> None:
        """Define a write's status, downgrading OK to ERROR when this node
        died mid-write (a kill triggered by the write's own replica
        traffic): the local mutation may be torn relative to its mirrors,
        so the caller must treat the write as failed and retry."""
        if status is not None:
            status.define(
                Status.ERROR if node.number in self.machine._failed
                else Status.OK
            )

    # -- create -------------------------------------------------------------------

    def create_array(
        self,
        node: VirtualProcessor,
        type_name: str,
        dimensions: Sequence[int],
        processors: Sequence[int],
        distrib_info: Sequence,
        border_info: Any,
        indexing_type: str,
        replication: int,
        array_id_out: DefVar,
        status: DefVar,
    ) -> None:
        """Create a distributed array (§4.2.1).

        Runs on the requesting processor; issues ``create_local`` on every
        processor in the distribution and on this one (§5.1.4).

        ``replication=k`` assigns each section a deterministic chain of
        ``k`` backup processors (:meth:`ArrayLayout.replica_chains`); every
        subsequent write ships one ``replica_update`` per backup.
        """
        try:
            if type_name not in ("int", "double", "complex"):
                raise ValueError(f"bad element type {type_name!r}")
            dtype_for(type_name)
            dims = tuple(int(d) for d in dimensions)
            procs = tuple(int(p) for p in processors)
            if len(set(procs)) != len(procs):
                raise ValueError("duplicate processor numbers")
            for p in procs:
                self.machine.processor(p)  # validates range
            indexing = normalize_indexing(indexing_type)
            grid = compute_grid(dims, len(procs), distrib_info)
            borders = resolve_borders(border_info, len(dims))
            layout = ArrayLayout(
                dims=dims,
                grid=grid,
                borders=borders,
                indexing=indexing,
                grid_indexing=indexing,
            )
            replication = int(replication)
            replica_map = (
                ReplicaMap.assign(layout, procs, replication)
                if replication > 0
                else None
            )
        except (
            ValueError,
            DecompositionError,
            BorderSpecError,
            TypeError,
        ):
            return _fail(status, Status.INVALID, array_id_out)

        array_id = ArrayID(node.number, SERIALS.next_for(node.number))

        # Every processor that is to hold a record: the distribution and,
        # even when it holds no section, this creating processor — so later
        # requests made on it resolve (§5.1.4).
        if not self._fan_out(
            "create_local",
            (*procs, node.number),
            array_id,
            type_name,
            layout,
            procs,
            replication,
            replica_map,
        ):
            return _fail(status, Status.ERROR, array_id_out)
        with self._durability_lock:
            self._durability[array_id] = DurabilityState(
                array_id=array_id,
                replication=replication,
                processors=procs,
                replica_map=replica_map,
                type_name=type_name,
                layout=layout,
            )
        _define(array_id_out, array_id)
        _define(status, Status.OK)

    def create_local(
        self,
        node: VirtualProcessor,
        array_id: ArrayID,
        type_name: str,
        layout: ArrayLayout,
        processors: tuple[int, ...],
        replication: int,
        replica_map: Any,
        status: DefVar,
    ) -> None:
        """Create one processor's record, with its local section when it
        is in the distribution (§5.1.1)."""
        record = self._make_record(
            node, array_id, type_name, layout, processors, replication,
            replica_map,
        )
        _records(node)[array_id] = record
        # Seed the backup mirrors with the initial contents: a section
        # lost *before* its first write must still be recoverable.
        self._seed_mirrors(node, record)
        _define(status, Status.OK)

    def _make_record(
        self,
        node: VirtualProcessor,
        array_id: ArrayID,
        type_name: str,
        layout: ArrayLayout,
        processors: Sequence[int],
        replication: int,
        replica_map: Any,
        epoch: int = 0,
    ) -> ArrayRecord:
        """This node's record of an array under the given membership, not
        yet tabled: with a fresh local section when the node is one of
        ``processors``, without one otherwise."""
        section = (
            LocalSection(
                type_name, layout.local_dims, layout.borders, layout.indexing
            )
            if node.number in processors
            else None
        )
        return ArrayRecord(
            array_id=array_id,
            type_name=type_name,
            layout=layout,
            processors=tuple(processors),
            section=section,
            replication=replication,
            replica_map=replica_map,
            epoch=int(epoch),
        )

    def _seed_mirrors(
        self, node: VirtualProcessor, record: ArrayRecord
    ) -> None:
        """Push this node's whole section interior to its backups at the
        record's epoch; nothing to do without a section or a backup."""
        if (
            record.section is not None
            and record.replication > 0
            and record.replica_map is not None
        ):
            # As in _commit: a kill's recovery waits for the lock's release.
            with self.machine.holding_failures, record.lock:
                self._replicate(
                    node, record, [(None, record.section.interior().copy())]
                )

    # -- free ----------------------------------------------------------------------

    def free_array(
        self, node: VirtualProcessor, array_id: Any, status: DefVar
    ) -> None:
        """Delete a distributed array and free its storage (§4.2.2)."""
        record = self._resolve(node, array_id, status)
        if record is None:
            return
        # Pending coalesced writes to a dying array can never be
        # observed: drop them (and any compiled plans) instead of racing
        # the free.
        self.machine._perf.drop_array(record.array_id)
        # Every processor with a record forgets it (§5.1.3) — the owners,
        # the creating processor even when it holds no section (§5.1.4),
        # and this one — so a later request for the ID answers NOT_FOUND
        # wherever it is made.  A holder that has failed cannot be asked
        # and must not keep the survivors' array alive.
        holders = (
            *record.processors, array_id.creating_processor, node.number
        )
        self._fan_out("free_local", holders, array_id, skip_failed=True)
        with self._durability_lock:
            self._durability.pop(array_id, None)
        _define(status, Status.OK)

    def free_local(
        self,
        node: VirtualProcessor,
        array_id: ArrayID,
        status: Optional[DefVar],
    ) -> None:
        record = _records(node).pop(array_id, None)
        if record is None:
            return _fail(status, Status.NOT_FOUND)
        if record.section is not None:
            record.section.free()
        replica_store_for(node).drop_array(array_id)
        _define(status, Status.OK)

    # -- element access ---------------------------------------------------------------

    def read_element(
        self,
        node: VirtualProcessor,
        array_id: Any,
        indices: Sequence[int],
        element_out: DefVar,
        status: DefVar,
    ) -> None:
        """Read one element via global indices (§4.2.3).

        Translates global indices to (processor, local indices) and issues
        ``read_element_local`` on the owner.  A read is a flush point: the
        coalesced writes pending against the element's section land first,
        so a program always reads its own writes (§3.3 sequential
        equivalence) — carried by the read itself when they were written
        here, flushed by the route before it otherwise.
        """
        record = self._resolve(node, array_id, status, element_out)
        if record is None:
            return
        try:
            section, local = record.layout.locate(tuple(indices))
        except (ValueError, IndexError):
            return _fail(status, Status.INVALID, element_out)
        coalescer = self.machine._perf.coalescer
        carried = coalescer.carry(record.array_id, section, node.number)
        try:
            self.machine.server.request(
                "read_element_local", array_id, section, local, element_out,
                status, processor=record.processors[section], carried=carried,
            )
        finally:
            if carried is not None:
                coalescer.settle(carried, node.number)

    def read_element_local(
        self,
        node: VirtualProcessor,
        array_id: ArrayID,
        section: int,
        local_indices: Sequence[int],
        element_out: DefVar,
        status: DefVar,
        carried: Any = None,
    ) -> None:
        record = self._resolve(
            node, array_id, status, element_out, section=section
        )
        if record is None:
            return
        if carried is not None:
            # The writes the read carries land first; a refusal is the
            # read's answer, never a value missing them.
            verdict = self._commit(node, record, (), carried=carried)
            if verdict != "ok":
                return _fail(status, _REFUSED[verdict], element_out)
        value = record.section.read(local_indices)
        element_out.define(value.item() if hasattr(value, "item") else value)
        status.define(Status.OK)

    def write_element(
        self,
        node: VirtualProcessor,
        array_id: Any,
        indices: Sequence[int],
        element: Any,
        status: DefVar,
    ) -> None:
        """Write one element via global indices (§4.2.4).

        A valid write is acknowledged at once and queued in the
        write-behind coalescer; it lands at the next flush point as part
        of one fused ``array_batch`` message, or carried by a request for
        its section (docs/performance.md).  A write to a dead owner raises
        :class:`ProcessorFailedError` at once, under every
        ``dead_send_policy``.  A caller that needs the owner's own status
        writes a one-cell region.
        """
        record = self._resolve(node, array_id, status)
        if record is None:
            return
        if not isinstance(element, (int, float, complex)):
            return _fail(status, Status.INVALID)
        try:
            section, local = record.layout.locate(tuple(indices))
        except (ValueError, IndexError):
            return _fail(status, Status.INVALID)
        owner = record.processors[section]
        machine = self.machine
        if owner in machine._failed:
            # Raised here, not at a flush nobody waits on.
            machine.check_alive((owner,))
        machine._perf.coalescer.enqueue(
            record.array_id, section, local, element, node.number
        )
        self._write_status(node, status)

    # -- local sections ------------------------------------------------------------------

    def find_local(
        self,
        node: VirtualProcessor,
        array_id: Any,
        section_out: DefVar,
        status: DefVar,
    ) -> None:
        """Local section of the array on *this* processor (§4.2.5).

        The one operation requiring a local rather than global view: it
        fails on processors holding no section of the array (§5.1.4).
        """
        record = self._resolve(node, array_id, status, section_out, local=True)
        if record is None:
            return
        # The caller gets direct access to the section storage: pending
        # coalesced writes against it must land first.
        self.machine._perf.coalescer.flush(
            record.array_id, record.section_number_for(node.number)
        )
        _define(section_out, record.section)
        _define(status, Status.OK)

    # -- region access -----------------------------------------------------------------

    def _decomposed(
        self, layout: ArrayLayout, region: Sequence
    ) -> Optional[tuple[tuple, tuple]]:
        """``(bounds, layout.region_sections(bounds))`` of a caller's
        region, or None when it is malformed or out of range."""
        try:
            bounds = tuple((int(a), int(b)) for a, b in region)
            return bounds, layout.region_sections(bounds)
        except (ValueError, IndexError, TypeError):
            return None

    def region_write(
        self,
        array_id: ArrayID,
        layout: ArrayLayout,
        type_name: str,
        processors: Sequence[int],
        region: Sequence,
        data: Any,
    ) -> Status:
        """A region write from wherever it is issued: one
        ``write_region_local`` request per owning processor, carrying only
        that owner's share.  INVALID, and no owner is asked, when the
        region is out of range or ``data`` is not of its shape."""
        decomposed = self._decomposed(layout, region)
        if decomposed is None:
            return Status.INVALID
        bounds, parts = decomposed
        dense = np.asarray(data, dtype=dtype_for(type_name))
        if tuple(dense.shape) != layout.region_shape(bounds):
            return Status.INVALID
        shares = {
            processors[section]: (
                section, local_slices, dense[out_slices].copy()
            )
            for section, local_slices, out_slices in parts
        }
        ok = self._carrying_fan_out("write_region_local", array_id, shares)
        return Status.OK if ok else Status.ERROR

    def _carrying_fan_out(
        self, request_type: str, array_id: ArrayID, shares: dict
    ) -> bool:
        """A region request's fan-out, ``shares`` mapping each holder to
        ``(section, ...)``, ordered after the element writes queued before
        it for the sections it touches: their queues ride the shares
        (:meth:`~repro.perf.coalescer.WriteCoalescer.carry`), taken in
        section order — the order of their flush locks, held until the
        shares answer — and a carried batch not answered ``"ok"`` goes by
        the route after.  The queues of the sections it does not touch
        stay queued: no cell of theirs is in the region, and whatever
        observes one of those cells lands its queue first."""
        coalescer = self.machine._perf.coalescer
        origin = fabric.current_processor()
        carried = {}
        try:
            for holder, share in sorted(shares.items(), key=lambda hs: hs[1][0]):
                batch = coalescer.carry(array_id, share[0], origin)
                if batch is not None:
                    carried[holder] = batch
            return self._fan_out(request_type, shares, array_id, carried=carried)
        finally:
            for batch in carried.values():
                coalescer.settle(batch, origin)

    def read_region(
        self,
        node: VirtualProcessor,
        array_id: Any,
        region: Sequence,
        data_out: DefVar,
        status: DefVar,
    ) -> None:
        """Read a rectangular region via global bounds (region-granular RPC).

        ``region`` is one half-open ``(start, stop)`` pair per dimension.
        The handler decomposes the region over the owning local sections
        and issues **one** ``read_region_local`` peer request per owner —
        O(owners) messages where the per-element path costs O(elements) —
        then assembles the pieces into a dense array of the region's shape.
        """
        record = self._resolve(node, array_id, status, data_out)
        if record is None:
            return
        decomposed = self._decomposed(record.layout, region)
        if decomposed is None:
            return _fail(status, Status.INVALID, data_out)
        bounds, parts = decomposed
        # The parts tile the region exactly once: every cell is written.
        out = np.empty(
            record.layout.region_shape(bounds), dtype=dtype_for(record.type_name)
        )
        shares, pieces = {}, []
        for section, local_slices, out_slices in parts:
            # Anonymous: a part is read only once the fan-out has returned,
            # when every part is defined, so no reader suspends on one.
            part = DefVar()
            shares[record.processors[section]] = (section, local_slices, part)
            pieces.append((out_slices, part))
        # Reads are flush points: queued writes land before the copies.
        if not self._carrying_fan_out("read_region_local", array_id, shares):
            return _fail(status, Status.ERROR, data_out)
        for out_slices, part in pieces:
            out[out_slices] = part.read()
        _define(data_out, out)
        _define(status, Status.OK)

    def read_region_local(
        self,
        node: VirtualProcessor,
        array_id: ArrayID,
        section: int,
        local_slices: tuple,
        data_out: DefVar,
        status: DefVar,
        carried: Any = None,
    ) -> None:
        """Copy one section's share of a region (interior slices), after
        committing the write batch the request carries."""
        record = self._resolve(
            node, array_id, status, data_out, section=section
        )
        if record is None:
            return
        if carried is not None:
            verdict = self._commit(node, record, (), carried=carried)
            if verdict != "ok":
                return _fail(status, _REFUSED[verdict], data_out)
        _define(data_out, record.section.interior()[tuple(local_slices)].copy())
        _define(status, Status.OK)

    def write_region(
        self,
        node: VirtualProcessor,
        array_id: Any,
        region: Sequence,
        data: Any,
        status: DefVar,
    ) -> None:
        """Write a rectangular region via global bounds (region-granular RPC).

        ``data`` must match the region's shape; each owning section gets
        one ``write_region_local`` peer request carrying only its share.
        """
        record = self._resolve(node, array_id, status)
        if record is None:
            return
        outcome = self.region_write(
            array_id, record.layout, record.type_name, record.processors,
            region, data,
        )
        _define(status, outcome)

    def write_region_local(
        self,
        node: VirtualProcessor,
        array_id: ArrayID,
        section: int,
        local_slices: tuple,
        data: Any,
        status: DefVar,
        carried: Any = None,
    ) -> None:
        """Overwrite one section's share of a region (interior slices), in
        one commit with the write batch the request carries."""
        record = self._resolve(node, array_id, status, section=section)
        if record is None:
            return
        self._commit(
            node, record, [(tuple(local_slices), data)], status,
            carried=carried,
        )

    def get_local_block(
        self,
        node: VirtualProcessor,
        array_id: Any,
        block_out: DefVar,
        status: DefVar,
    ) -> None:
        """This processor's block of the global index space.

        Defines ``block_out`` with ``(origin, data)``: the global indices
        of the section's first interior element and a copy of the interior
        data.  Like ``find_local`` it needs the local view, so it fails on
        processors holding no section (§5.1.4).
        """
        record = self._resolve(node, array_id, status, block_out, local=True)
        if record is None:
            return
        section_number = record.section_number_for(node.number)
        self.machine._perf.coalescer.flush(record.array_id, section_number)
        origin = record.layout.global_indices(
            section_number, (0,) * record.layout.rank
        )
        _define(block_out, (origin, record.section.interior().copy()))
        _define(status, Status.OK)

    def copy_local(
        self,
        node: VirtualProcessor,
        array_id: ArrayID,
        layout: ArrayLayout,
        status: DefVar,
    ) -> None:
        """Give this processor's record ``layout``, reallocating its local
        section with the new borders and copying the interior data
        (§5.1.1, used by verify_array).  Copy and swap happen under
        ``record.lock``, so no write lands in the storage being freed; a
        record without a section takes the layout alone."""
        record = self._resolve(node, array_id, status)
        if record is None:
            return
        with record.lock:
            if record.section is not None:
                replacement = record.section.reallocate_with_borders(
                    layout.borders
                )
                record.section.free()
                record.section = replacement
            record.layout = layout
        _define(status, Status.OK)

    def verify_array(
        self,
        node: VirtualProcessor,
        array_id: Any,
        n_dims: int,
        border_info: Any,
        indexing_type: str,
        status: DefVar,
    ) -> None:
        """Verify borders/indexing against the array's layout
        (``DurabilityState.layout``); on a border mismatch reallocate every
        local section and commit the new layout (§4.2.7).

        Every member and the creating processor take the new layout
        (``copy_local``); a failed holder is passed over, since a section
        rebuilt later is made to the state's layout.  The layout is
        committed only when every holder asked answered OK, so a retried
        ``verify_array`` asks again."""
        if self._resolve(node, array_id, status) is None:
            return
        state = self.durability_state(array_id)
        if state is None:
            return _fail(status, Status.NOT_FOUND)
        layout = state.layout
        try:
            indexing = normalize_indexing(indexing_type)
        except ValueError:
            return _fail(status, Status.INVALID)
        if n_dims != layout.rank or indexing != layout.indexing:
            # Indexing type cannot be corrected without repartitioning;
            # mismatch is invalid (§4.2.7 third example).
            return _fail(status, Status.INVALID)
        try:
            expected = resolve_borders(border_info, layout.rank)
        except BorderSpecError:
            return _fail(status, Status.INVALID)
        if expected == layout.borders:
            _define(status, Status.OK)
            return
        # Sections are about to be reallocated: pending writes must land
        # in the old storage before copy_local copies it.
        self.machine._perf.coalescer.flush(array_id)
        with state.lock:
            new_layout = state.layout.replace_borders(expected)
            ok = self._fan_out(
                "copy_local",
                (*state.processors, array_id.creating_processor),
                array_id,
                new_layout,
                skip_failed=True,
            )
            if ok:
                state.layout = new_layout
        _define(status, Status.OK if ok else Status.ERROR)

    # -- checkpoint / restore -----------------------------------------------------------

    def checkpoint_array(
        self,
        node: VirtualProcessor,
        array_id: Any,
        snapshot_out: DefVar,
        status: DefVar,
    ) -> None:
        """Produce an epoch-consistent snapshot of one array.

        The consistency cut: one worker per owning processor acquires its
        record's write lock, then all workers meet at a
        :func:`~repro.spmd.collectives.barrier` — at the barrier instant
        every section lock is held simultaneously, so no write is in
        flight anywhere.  Each worker copies its interior and stamps the
        new epoch before releasing, and the assembled
        :class:`ArraySnapshot` becomes the array's latest checkpoint.
        """
        state = self.durability_state(array_id)
        if state is None:
            return _fail(status, Status.NOT_FOUND, snapshot_out)
        from repro.spmd.comm import GroupComm

        # A checkpoint is a flush point: writes accepted before the call
        # must be inside the cut.  Flush before taking the state lock so
        # batch application never contends with the quiesce barrier.
        self.machine._perf.coalescer.flush(array_id)
        with state.lock:
            procs = state.processors
            target_epoch = state.allocate_epoch()
            group = (
                "am.ckpt",
                array_id.as_tuple(),
                next(self._checkpoint_serials),
            )
            try:
                # Every owner must be alive before the first worker is
                # spawned: a worker already waiting in the barrier holds
                # its record lock until the receive deadline.
                self.machine.check_alive(procs)
                results: list[DefVar] = []
                for rank, proc in enumerate(procs):
                    comm = GroupComm(self.machine, procs, rank, group)
                    # Internal comm: its barrier runs with every record
                    # lock held, so the collective flush hook must not
                    # fire inside it (it could need one of those locks).
                    comm.internal = True
                    result = DefVar(f"checkpoint@{proc}")
                    results.append(result)
                    self.machine.processor(proc).spawn(
                        self._checkpoint_section,
                        self.machine.processor(proc),
                        array_id,
                        comm,
                        target_epoch,
                        result,
                        name=f"am-checkpoint-{proc}",
                    )
                sections: dict[int, np.ndarray] = {}
                limit = self.machine.default_recv_timeout
                for section_number, result in enumerate(results):
                    outcome, data = result.read(timeout=limit)
                    if outcome != "ok":
                        raise RuntimeError(
                            f"checkpoint worker for section {section_number} "
                            f"failed"
                        )
                    sections[section_number] = data
            except Exception:  # noqa: BLE001 - quiesce failures -> Status
                return _fail(status, Status.ERROR, snapshot_out)
            snapshot = ArraySnapshot(
                array_id=array_id,
                epoch=target_epoch,
                type_name=state.type_name,
                layout=state.layout,
                processors=procs,
                replication=state.replication,
                sections=sections,
            )
            state.epoch = target_epoch
            state.last_checkpoint = snapshot
        _define(snapshot_out, snapshot)
        _define(status, Status.OK)

    def _checkpoint_section(
        self,
        node: VirtualProcessor,
        array_id: ArrayID,
        comm: Any,
        epoch: int,
        result: DefVar,
    ) -> None:
        """Per-owner checkpoint worker: lock, barrier, copy, stamp."""
        from repro.spmd.collectives import barrier

        record = self._lookup(node, array_id)
        if record is None or record.section is None:
            # Still participate in the barrier so peers are not stranded
            # holding their locks.
            barrier(comm)
            result.define(("error", None))
            return
        with record.lock:
            barrier(comm)
            data = record.section.interior().copy()
            record.epoch = epoch
        result.define(("ok", data))

    def restore_array(
        self,
        node: VirtualProcessor,
        array_id: Any,
        snapshot: Any,
        status: DefVar,
    ) -> None:
        """Write a snapshot back into the array under a fresh epoch.

        Sections are restored onto the *current* membership (recovery may
        have remapped owners since the snapshot was taken); mirrors are
        reseeded by each owner, so in-flight replica updates stamped
        before the restore are rejected as stale.
        """
        state = self.durability_state(array_id)
        if state is None:
            return _fail(status, Status.NOT_FOUND)
        if not isinstance(snapshot, ArraySnapshot) or (
            snapshot.array_id != array_id
        ):
            return _fail(status, Status.INVALID)
        # Writes accepted before the restore belong to the overwritten
        # past: flush them out so they cannot land *after* the restore.
        self.machine._perf.coalescer.flush(array_id)
        with state.lock:
            new_epoch = state.allocate_epoch(above=snapshot.epoch)
            shares = {
                proc: (snapshot.sections.get(section_number),)
                for section_number, proc in enumerate(state.processors)
            }
            if any(data is None for (data,) in shares.values()):
                return _fail(status, Status.INVALID)
            if not self._fan_out(
                "restore_local", shares, array_id, new_epoch
            ):
                return _fail(status, Status.ERROR)
            state.epoch = new_epoch
        _define(status, Status.OK)

    def restore_local(
        self,
        node: VirtualProcessor,
        array_id: ArrayID,
        epoch: int,
        data: Any,
        status: DefVar,
    ) -> None:
        """Overwrite this section from a snapshot at the given epoch."""
        record = self._resolve(node, array_id, status, local=True)
        if record is None:
            return
        interior = record.section.interior()
        if tuple(getattr(data, "shape", ())) != tuple(interior.shape):
            return _fail(status, Status.INVALID)
        # A private copy in the section's dtype: mirrors replay exactly
        # what the owner stored, and a delayed replica update never
        # aliases the snapshot.
        mutations = [(None, np.array(data, dtype=interior.dtype))]
        self._commit(node, record, mutations, status, epoch=epoch)

    # -- recovery ------------------------------------------------------------------------

    def replica_fetch(
        self,
        node: VirtualProcessor,
        array_id: ArrayID,
        section: int,
        out: DefVar,
        status: DefVar,
    ) -> None:
        """Fetch this backup's mirror of one section: ``(epoch, data)``."""
        entry = replica_store_for(node).fetch(array_id, int(section))
        if entry is None:
            return _fail(status, Status.NOT_FOUND, out)
        _define(out, entry)
        _define(status, Status.OK)

    def adopt_section(
        self,
        node: VirtualProcessor,
        array_id: ArrayID,
        type_name: str,
        layout: ArrayLayout,
        processors: tuple[int, ...],
        replication: int,
        replica_map: Any,
        epoch: int,
        data: Any,
        status: DefVar,
    ) -> None:
        """Install a rebuilt section on a spare processor (recovery)."""
        state = self.durability_state(array_id)
        if state is not None and int(epoch) < state.epoch:
            # Fenced adopt: the epoch this adopt was computed at has
            # been superseded (a stale mover, or a minority-side plan
            # surviving past heal).  Installing it would resurrect old
            # data under an old epoch — refuse instead.
            self._refuse_stale(array_id, status)
            return
        record = self._make_record(
            node, array_id, type_name, layout, processors, replication,
            replica_map, epoch,
        )
        record.section.interior()[...] = data
        _records(node)[array_id] = record
        _define(status, Status.OK)

    def update_membership_local(
        self,
        node: VirtualProcessor,
        array_id: ArrayID,
        processors: tuple[int, ...],
        replica_map: Any,
        epoch: int,
        status: DefVar,
    ) -> None:
        """Rewrite this holder's record to the membership ``(processors,
        replica_map, epoch)`` — the only place a record's membership
        changes.  A mover publishing a plan asks for it (recovery,
        migration, rollback), and so does :meth:`rejoin_processor`, under
        ``kind="rejoin"``, of a falsely-suspected VP leaving quarantine:
        while the VP was unreachable recovery may have reassigned its
        sections, and the rewrite makes its fencing token current again
        and its routing view the survivors'.

        A section this node still holds that the new membership places
        elsewhere is freed: the copy on the new owner is authoritative —
        keeping both would be split-brain.  NOT_FOUND when the node holds
        nothing of the array: there is nothing to rewrite.
        """
        record = self._resolve(node, array_id, status)
        if record is None:
            return
        processors = tuple(processors)
        with record.lock:
            # Fenced membership rewrite: a delayed rewrite from a
            # superseded plan must not roll this record's epoch (its
            # fencing token) backwards.
            stale = int(epoch) < record.epoch
            if not stale:
                # The node keeps its section where both memberships name
                # it for the same section number.
                if record.section is not None and not any(
                    old == node.number == new
                    for old, new in zip(record.processors, processors)
                ):
                    record.section.free()
                    record.section = None
                record.processors = processors
                record.replica_map = replica_map
                record.epoch = int(epoch)
                record.invalidate_section_index()
        if stale:
            self._refuse_stale(array_id, status)
            return
        _define(status, Status.OK)

    def reseed_replicas_local(
        self,
        node: VirtualProcessor,
        array_id: ArrayID,
        status: DefVar,
    ) -> None:
        """Push this owner's full section to its (new) backups at the
        current epoch, so mirrors reflect post-recovery reality and older
        in-flight updates are rejected as stale."""
        record = self._resolve(node, array_id, status)
        if record is None:
            return
        # A record without a section (the creating processor, or an
        # owner that just yielded its section to a migration) has
        # nothing to reseed — an OK no-op, so recovery running
        # reentrantly under a mid-migration kill is not tripped by
        # the section being legitimately in flight.
        self._seed_mirrors(node, record)
        _define(status, Status.OK)

    # -- quarantine rejoin (repro.health) -----------------------------------------

    def rejoin_processor(self, vp: int, origin: int = 0) -> dict:
        """Run the rejoin protocol for one quarantined VP across every
        durable array: push current membership/epoch onto it
        (:meth:`update_membership_local`, freeing sections it lost to
        recovery).  Records of arrays that were freed while it was away
        are dropped with their storage.  A *real* death of this VP later
        fires recovery again: recovery acts on whatever the VP then owns.

        Called by a failure detector round when a false-positive
        resumes heartbeating.  Best-effort per array: a
        re-cut partition or concurrent death leaves the VP quarantined
        and the next quarantine round retries.
        """
        machine = self.machine
        results: dict = {}
        if machine.is_failed(vp):
            return results
        if origin == vp or machine.is_unavailable(origin):
            origin = next(
                (
                    p
                    for p in range(machine.num_nodes)
                    if p != vp and not machine.is_unavailable(p)
                ),
                origin,
            )
        for array_id, state in self.durability_states():
            with state.lock:
                membership = (
                    tuple(state.processors), state.replica_map, state.epoch
                )
            try:
                with fabric.execution_context(processor=origin):
                    self.mover._ask(
                        "update_membership_local", vp, REJOIN_KIND, array_id,
                        *membership,
                    )
                results[array_id] = Status.OK
            except TimeoutError:
                results[array_id] = Status.ERROR
            except ReproError as exc:
                # The VP is gone again (ERROR), or the rewrite was refused:
                # NOT_FOUND is no error, the VP holds nothing of the array.
                results[array_id] = exc.status
        # An array freed while the VP could not be asked (``free_array``
        # passes over a failed holder) is still recorded here, storage and
        # mirrors included.  No durability state means no array: forget it.
        # (An array whose ``create_array`` is between its fan-out and its
        # registration looks the same for that instant; a create racing a
        # rejoin of one of its own holders is not defended against.)
        node = machine.processor(vp)
        for array_id in list(_records(node)):
            if self.durability_state(array_id) is None:
                self.free_local(node, array_id, None)
        return results

    # -- planned migration (repro.arrays.placement) -----------------------------------

    def yield_section_local(
        self,
        node: VirtualProcessor,
        array_id: ArrayID,
        expected_epoch: int,
        out: DefVar,
        status: DefVar,
    ) -> None:
        """Surrender this processor's section to a migration: copy the
        interior, free the storage, and leave the record section-less.

        Guarded by the epoch the plan was computed at: a fault-delayed
        yield arriving after a rollback (or any other epoch bump) is
        refused with INVALID instead of destroying restored data.
        """
        record = self._lookup(node, array_id)
        if record is None or record.section is None:
            define_once(out, None)
            define_once(status, Status.NOT_FOUND)
            return
        with record.lock:
            if record.epoch != int(expected_epoch):
                define_once(out, None)
                define_once(status, Status.INVALID)
                return
            data = record.section.interior().copy()
            record.section.free()
            record.section = None
        define_once(out, data)
        define_once(status, Status.OK)

    def _run_plan(
        self,
        node: VirtualProcessor,
        array_id: Any,
        build: Any,
        moved_out: DefVar,
        status: DefVar,
    ) -> None:
        """The body of both planned-migration requests: flush the
        coalescer's writes to the array (the migration barrier), then,
        under the state lock, ``build(state)`` the plan — a
        :class:`MigrationError` there is INVALID — execute it, and log the
        outcome.

        The barrier runs before the state lock is taken, as every flush
        does (the lock order, docs/fault_model.md §9): a flush under it
        would wait for a batch that is waiting for it.  A write queued
        after the barrier reaches the section's new owner, since the route
        reads the owner under the state lock."""
        state = self.durability_state(array_id)
        if state is None:
            return _fail(status, Status.NOT_FOUND, moved_out)
        self.machine._perf.coalescer.flush(array_id)
        with state.lock:
            try:
                plan = build(state)
            except MigrationError:
                return _fail(status, Status.INVALID, moved_out)
            if plan is None or not plan.moves:
                _define(moved_out, [])
                _define(status, Status.OK)
                return
            entry = {
                "array": array_id.as_tuple(),
                "moves": [(m.section, m.source, m.dest) for m in plan.moves],
                "ok": False,
            }
            try:
                with obs_span(
                    self.machine,
                    "migrate",
                    array=str(array_id.as_tuple()),
                    moves=len(plan.moves),
                ):
                    outcome = self.mover.execute_locked(
                        state, plan, origin=node.number
                    )
            except Exception as exc:  # noqa: BLE001 - rolled back -> Status
                entry["error"] = repr(exc)
            else:
                entry["ok"] = True
                entry["epoch"] = outcome["epoch"]
            with self._trace_lock:
                self.migrations.append(entry)
            if not entry["ok"]:
                return _fail(status, Status.ERROR, moved_out)
            _define(moved_out, outcome["sections"])
            _define(status, Status.OK)

    def migrate_sections(
        self,
        node: VirtualProcessor,
        array_id: Any,
        assignments: Any,
        moved_out: DefVar,
        status: DefVar,
    ) -> None:
        """Move sections per an explicit ``{section: destination}`` map
        (or a prebuilt :class:`PlacementPlan`).  Defines ``moved_out``
        with the list of section numbers that moved.

        The move is transactional against failure: a mid-plan death or
        dropped message rolls the sourced sections back onto the current
        owners under a fresh epoch and returns ERROR.
        """
        self._run_plan(
            node,
            array_id,
            lambda state: (
                assignments
                if isinstance(assignments, PlacementPlan)
                else PlacementPlan.from_assignments(state, dict(assignments))
            ),
            moved_out,
            status,
        )

    def rebalance_array(
        self,
        node: VirtualProcessor,
        array_id: Any,
        targets: Any,
        moved_out: DefVar,
        status: DefVar,
    ) -> None:
        """Repair/respread one array: keep sections whose owner is alive
        (and within ``targets``, when given); move the rest onto spare
        processors — including processors added at runtime, which is how
        ``add_processor()`` + ``rebalance()`` repairs a section recovery
        had to leave pending for want of a spare."""
        self._run_plan(
            node,
            array_id,
            lambda state: PlacementPlan.rebalance(
                state, self.machine, targets
            ),
            moved_out,
            status,
        )

    # -- info ---------------------------------------------------------------------------

    def find_info(
        self,
        node: VirtualProcessor,
        array_id: Any,
        which: str,
        out: DefVar,
        status: DefVar,
    ) -> None:
        """Information about a distributed array (§4.2.6)."""
        record = self._resolve(node, array_id, status, out)
        if record is None:
            return
        try:
            value = record.info(which)
        except ValueError:
            return _fail(status, Status.INVALID, out)
        _define(out, value)
        _define(status, Status.OK)


_MANAGER_KEY = "am.manager"


def install_array_manager(
    machine: Machine, trace: bool = False
) -> ArrayManager:
    """Load the array manager onto a machine (the ``load "am"`` of §B.3).

    Idempotent: a machine has at most one array manager.
    """
    existing = getattr(machine, "_array_manager", None)
    if existing is not None:
        return existing
    manager = ArrayManager(machine, trace=trace)
    machine.server.load(manager.capabilities())
    # Durability traffic rides the fabric under its own envelope kinds:
    # replica updates apply at the backup's final delivery, recovery
    # requests execute as server calls distinguishable by meters/tracers.
    machine.register_kind_handler(
        REPLICA_UPDATE_KIND, manager._on_replica_update
    )
    machine.register_kind_handler(RECOVERY_KIND, machine.server._execute)
    # Planned-migration RPCs (yield/adopt/membership rewrites issued by
    # the section mover) travel under their own kind, so meters and
    # fault plans can target elective moves separately from recovery.
    machine.register_kind_handler(MIGRATE_KIND, machine.server._execute)
    # Quarantine-rejoin RPCs (membership rewrites onto a falsely-suspected
    # VP) carry their own kind: exempt from suspect-send queueing and
    # targetable by fault plans independently of recovery/migration.
    machine.register_kind_handler(REJOIN_KIND, machine.server._execute)
    # The batching-and-planning layer (repro.perf): fused write batches
    # arrive under their own kind and apply atomically at the owner.
    machine.register_kind_handler(ARRAY_BATCH_KIND, manager._on_array_batch)
    machine._perf = PerfLayer(machine, manager)  # type: ignore[attr-defined]
    # Precompiled halo-exchange strips (repro.perf.commplan): one fused
    # bulk message per neighbour per phase, epoch-fenced at delivery and
    # parked in a rendezvous until the receiving copy claims it.
    machine.register_kind_handler(
        HALO_BULK_KIND, machine._perf.plans.deliver
    )
    machine._array_manager = manager  # type: ignore[attr-defined]
    return manager


def get_array_manager(machine: Machine) -> ArrayManager:
    manager = getattr(machine, "_array_manager", None)
    if manager is None:
        raise RuntimeError(
            "array manager not loaded; call install_array_manager(machine) "
            "or am_util.load_all(machine, 'am') first (§B.3)"
        )
    return manager
