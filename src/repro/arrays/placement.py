"""Section placement: one engine that moves array sections between VPs.

PR 3's recovery coordinator grew the machinery for relocating a local
section — pick a destination, source the bytes (live owner, surviving
replica, or checkpoint), adopt them on the new owner, rewrite every
survivor's membership and replica map, bump the epoch.  That machinery
was buried inside ``RecoveryCoordinator._rebuild_locked`` and therefore
only ran as a side effect of death.  This module extracts it into a
standalone engine so *planned* migration (elastic rebalancing onto
processors added at runtime, ``DistributedArray.rebalance()``) and
*failure* recovery share exactly one code path that moves a section:

* :class:`PlacementPlan` — an immutable description of a membership
  change: which sections move where, the resulting processor tuple, and
  the replica map recomputed for it.  Built by
  :meth:`PlacementPlan.for_failure` (recovery: dead owner -> spare),
  :meth:`PlacementPlan.from_assignments` (explicit ``{section: dest}``),
  or :meth:`PlacementPlan.rebalance` (rehome the sections of dead owners,
  or of owners outside a target set, onto spares).

* :class:`SectionMover` — executes a plan under the array's
  ``DurabilityState`` lock: source each moving section, adopt it on its
  destination, publish the new membership (rewrite it on every holder,
  reseed mirrors), and commit the epoch the plan drew when it started
  (``DurabilityState.allocate_epoch`` — no two plans hold the same
  number).  The plan's ``reason`` decides the rest.  A planned migration
  rolls back — a failure mid-plan (destination dies, fault-injected drop
  times out, concurrent recovery rewrites membership underneath)
  restores the sourced sections onto the current owners under a
  *freshly drawn* epoch and publishes that membership to every holder
  and destination: the rewrite frees whatever a destination adopted that
  the restored membership places elsewhere, and a delayed
  ``yield_section_local`` from the abandoned attempt is refused by its
  epoch guard instead of destroying restored data.
  Recovery does not roll back: a section it could not move stays pending
  for a retry (or is recorded lost).

The mover never flushes the write coalescer.  The migration barrier
(docs/elasticity.md) is the planned-migration request's: it drains the
coalescer for the array before it takes the state lock, so write-behind
batches aimed at the old owner land before the section leaves it; a batch
racing the move is refused by the old owner's holder check and re-sent
to the owner the perf layer's route reads under the state lock, after the
commit.
"""

from __future__ import annotations

import threading
from contextlib import suppress
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.pcn.defvar import DefVar
from repro.status import (
    ArrayNotFoundError,
    ProcessorFailedError,
    StalePlanError,
    check_status,
)
from repro.vp import fabric

# Envelope kinds of the two reasons a section moves, which are also the
# two values of ``PlacementPlan.reason``.  Planned-migration RPCs —
# yield/adopt/membership traffic — are distinguishable from recovery's on
# the wire (meters, tracers, fault plans can target one without the
# other).
RECOVERY_KIND = "recovery"
MIGRATE_KIND = "migrate"


class MigrationError(RuntimeError):
    """A planned migration could not be completed (and was rolled back)."""


class SectionSourceError(Exception):
    """No copy of a section survives anywhere (owner dead, no replica,
    no checkpoint).  Carries the section number so recovery can record
    its exact per-section diagnostic."""

    def __init__(self, section: int) -> None:
        super().__init__(f"section {section}: no replica or checkpoint")
        self.section = section


@dataclass(frozen=True)
class SectionMove:
    """One section changing owners: ``source`` may be dead (recovery)."""

    section: int
    source: int
    dest: int


@dataclass(frozen=True)
class PlacementPlan:
    """An immutable membership change for one array.

    ``base_processors`` is the membership the plan was computed against;
    the mover refuses a plan whose base no longer matches the live state
    (stale plan).  ``reason`` is ``"recovery"`` or ``"migrate"``
    (:data:`RECOVERY_KIND` / :data:`MIGRATE_KIND`): the envelope kind the
    plan's traffic carries, whether the mover rolls back, and which
    statistic (``sections_rebuilt`` / ``sections_migrated``) and observer
    metric the commit advances.
    """

    array_id: Any
    reason: str
    base_processors: Tuple[int, ...]
    new_processors: Tuple[int, ...]
    new_replica_map: Any
    moves: Tuple[SectionMove, ...]

    @classmethod
    def _over(
        cls, state: Any, reason: str, new_processors: Sequence[int], moves: Any
    ) -> "PlacementPlan":
        """The plan that takes ``state``'s membership to ``new_processors``,
        with the replica map recomputed for them."""
        from repro.arrays.durability import ReplicaMap

        new_processors = tuple(new_processors)
        return cls(
            array_id=state.array_id,
            reason=reason,
            base_processors=tuple(state.processors),
            new_processors=new_processors,
            new_replica_map=(
                ReplicaMap.assign(
                    state.layout, new_processors, state.replication
                )
                if state.replication > 0
                else None
            ),
            moves=tuple(moves),
        )

    @classmethod
    def for_failure(cls, state: Any, dead: int, spare: int) -> "PlacementPlan":
        """Recovery's plan: every section of ``dead`` moves to ``spare``."""
        base = tuple(state.processors)
        moves = [
            SectionMove(section, dead, spare)
            for section, proc in enumerate(base)
            if proc == dead
        ]
        new_processors = [spare if p == dead else p for p in base]
        return cls._over(state, RECOVERY_KIND, new_processors, moves)

    @classmethod
    def from_assignments(
        cls, state: Any, assignments: Dict[int, int]
    ) -> Optional["PlacementPlan"]:
        """Plan an explicit ``{section: destination}`` migration.

        Destinations must be processors holding no section of the array
        (each VP hosts at most one section, and adopt replaces the
        record wholesale), and distinct from each other — chained moves
        (A->B while B->C) are rejected rather than ordered.  Returns
        ``None`` when every assignment is already satisfied.
        """
        base = tuple(state.processors)
        new = list(base)
        moves: List[SectionMove] = []
        dests: set = set()
        for section in sorted(assignments):
            dest = int(assignments[section])
            section = int(section)
            if not 0 <= section < len(base):
                raise MigrationError(
                    f"array {state.array_id} has no section {section}"
                )
            if dest == base[section]:
                continue  # already there
            if dest in base:
                raise MigrationError(
                    f"processor {dest} already holds a section of "
                    f"{state.array_id}"
                )
            if dest in dests:
                raise MigrationError(
                    f"two sections assigned to processor {dest}"
                )
            dests.add(dest)
            moves.append(SectionMove(section, base[section], dest))
            new[section] = dest
        if not moves:
            return None
        return cls._over(state, MIGRATE_KIND, new, moves)

    @classmethod
    def rebalance(
        cls,
        state: Any,
        machine: Any,
        targets: Optional[Sequence[int]] = None,
    ) -> Optional["PlacementPlan"]:
        """Plan a repair: keep each section on its owner when
        the owner is alive and inside the target set; move every other
        section (dead owner, or owner outside an explicit ``targets``)
        onto a spare target holding no section of the array.  A lost
        section (``state.lost``) has nothing to move and stays where it
        is.

        Raises :class:`MigrationError` when a section must move but no
        spare target exists — the caller can ``Machine.add_processor()``
        and retry.  Returns ``None`` when the array is already placed.
        """
        candidates = range(machine.num_nodes) if targets is None else targets
        pool = [
            int(p) for p in candidates if not machine.is_unavailable(int(p))
        ]
        base = tuple(state.processors)
        homeless = [
            section
            for section, owner in enumerate(base)
            if section not in state.lost
            and (machine.is_unavailable(owner) or owner not in pool)
        ]
        if not homeless:
            return None
        spares = [p for p in pool if p not in base]
        assignments: Dict[int, int] = {}
        for section in homeless:
            if not spares:
                raise MigrationError(
                    f"no spare processor for section {section} of "
                    f"{state.array_id}"
                )
            assignments[section] = spares.pop(0)
        return cls.from_assignments(state, assignments)


class SectionMover:
    """Executes placement plans — the single code path that moves a
    section, shared by failure recovery and planned migration."""

    def __init__(self, machine: Any) -> None:
        self.machine = machine
        self._lock = threading.Lock()
        # Plans rolled back, surfaced to tests and diagnostics.
        self.aborts = 0

    # -- execution ------------------------------------------------------------

    def execute_locked(
        self, state: Any, plan: PlacementPlan, origin: Optional[int] = None
    ) -> dict:
        """Run one plan; the caller holds ``state.lock`` throughout, and
        the plan's requests are made from ``origin`` — when that is not
        given or cannot be reached, from the first processor that can.

        The protocol, in order: source each moving section — a live yield
        from its owner, else the freshest surviving replica, else the
        latest checkpoint; adopt it on the destination at the epoch the
        plan drew on entry;
        publish the new membership (:meth:`_publish`: rewrite it on every
        holder, reseed mirrors); commit the state; then have each former
        owner the new membership leaves without a role forget the array.

        ``plan.reason`` decides the rest, and is the envelope kind the
        plan's traffic carries.  A planned migration, on any failure,
        restores the sourced sections under a fresh epoch
        (:meth:`_abort_locked`) and re-raises.  Recovery propagates the
        failure with state untouched — the section stays pending, or its
        caller records it lost; nothing is undone.
        """
        machine = self.machine
        array_id = plan.array_id
        kind = plan.reason
        planned = kind == MIGRATE_KIND
        if tuple(plan.base_processors) != tuple(state.processors):
            raise StalePlanError(
                f"stale plan for {array_id}: membership is "
                f"{tuple(state.processors)}, plan assumed "
                f"{tuple(plan.base_processors)}"
            )
        entry_epoch = state.epoch
        new_epoch = state.allocate_epoch()
        membership = (plan.new_processors, plan.new_replica_map, new_epoch)

        def gate(when: str) -> None:
            """Stop once the epoch has moved: a kill during the plan's
            own traffic ran recovery reentrantly (``state.lock`` is an
            RLock) and rewrote the membership underneath the plan."""
            if state.epoch != entry_epoch:
                raise StalePlanError(
                    f"membership of {array_id} changed {when}"
                )

        if origin is None or machine.is_unavailable(origin):
            origin = next(
                p
                for p in range(machine.num_nodes)
                if not machine.is_unavailable(p)
            )
        sourced: List[Tuple[SectionMove, np.ndarray]] = []
        # Moves and membership traffic must originate from a live
        # node: recovery may be running on the dead VP's own thread.
        with fabric.execution_context(processor=origin):
            try:
                for move in plan.moves:
                    data = self._section_data(state, move, entry_epoch, kind)
                    # Adopting against the old membership would clobber
                    # the one the nested recovery committed.
                    gate(f"while sourcing section {move.section}")
                    sourced.append((move, data))
                    self._adopt(state, membership, data, move.dest, kind)
                gate("mid-migration (concurrent recovery)")
                holders = (
                    set(plan.new_processors)
                    | set(plan.base_processors)
                    | {array_id.creating_processor}
                ) - {move.dest for move in plan.moves}
                reseeded = self._publish(
                    state, membership, holders, kind, strict=True
                )
                # Final gate at the commit point: the rewrite/reseed
                # traffic above can itself trigger a kill, whose
                # reentrant recovery commits a new epoch after the
                # mid-migration check already passed.
                gate("during commit traffic")
                dead_dests = [
                    move.dest
                    for move in plan.moves
                    if machine.is_unavailable(move.dest)
                ]
                if dead_dests:
                    # A destination died *after* adopting (kills fire
                    # once the delivery completes), before it was a
                    # member, so no recovery will ever move the section
                    # off it: committing would hand it to a corpse.  A
                    # recovery recomputes its plan onto another spare.
                    raise StalePlanError(
                        f"destination processor {dead_dests[0]} of "
                        f"{array_id} failed mid-{kind}"
                    )
            except Exception:
                if planned:
                    self._abort_locked(state, plan, sourced)
                raise
            state.processors, state.replica_map, state.epoch = membership
            if reseeded:
                self._forget(
                    state, kind,
                    set(plan.base_processors) - set(plan.new_processors),
                )
        if planned:
            state.sections_migrated += len(plan.moves)
        else:
            state.sections_rebuilt += len(plan.moves)
        return {
            "sections": [move.section for move in plan.moves],
            "epoch": new_epoch,
        }

    # -- sourcing -------------------------------------------------------------

    def _section_data(
        self, state: Any, move: SectionMove, entry_epoch: int, kind: str
    ) -> np.ndarray:
        """A copy of the moving section.

        Live source: yield it (destructive copy-and-free, guarded by the
        epoch the plan was computed at, so a fault-delayed yield from an
        aborted attempt is refused).  Dead source: freshest surviving
        replica, then the latest checkpoint — recovery's sourcing order.
        """
        machine = self.machine
        array_id = state.array_id
        if not machine.is_unavailable(move.source):
            try:
                return self._yield(array_id, entry_epoch, move.source, kind)
            except ProcessorFailedError:
                # The source died under us: fall through to the replica
                # path exactly as if the plan had targeted a dead owner.
                pass
            except TimeoutError:
                # The yield request was dropped or delayed in transit
                # while the source is still alive.  A late execution
                # would free the section, so adopt nothing — abort and
                # let the epoch guard refuse the straggler.
                raise MigrationError(
                    f"yield of section {move.section} from processor "
                    f"{move.source} timed out"
                )
        if state.replica_map is not None:

            def mirror(host: int) -> Optional[Tuple[int, np.ndarray]]:
                """``(epoch, data)`` of the mirror ``host`` keeps of the
                section, None when it keeps none."""
                try:
                    return self._ask(
                        "replica_fetch", host, kind, array_id, move.section,
                        out=True,
                    )
                except ArrayNotFoundError:
                    return None

            chain = state.replica_map.backups_for(move.section)
            for backup in chain:
                if machine.is_unavailable(backup):
                    continue
                found = mirror(backup)
                if found is not None:
                    return found[1]
            # The chain came up empty.  A membership rewrite (another
            # owner's recovery) re-derives every chain for the new ring,
            # which can orphan the only surviving mirror on a processor
            # the new chain no longer names — e.g. the mirror's host was
            # partitioned away when its owner died, then healed.  Sweep
            # the remaining live processors and take the freshest mirror.
            best: Optional[Tuple[int, np.ndarray]] = None
            for host in range(machine.num_nodes):
                if host in chain or machine.is_unavailable(host):
                    continue
                found = mirror(host)
                if found is not None and (best is None or found[0] > best[0]):
                    best = found
            if best is not None:
                return best[1]
        if state.last_checkpoint is not None:
            data = state.last_checkpoint.sections.get(move.section)
            if data is not None:
                return data.copy()
        raise SectionSourceError(move.section)

    # -- publishing -----------------------------------------------------------

    def _publish(
        self, state: Any, membership: tuple, holders: Any, kind: str,
        strict: bool,
    ) -> bool:
        """Make ``membership`` — ``(processors, replica_map, epoch)`` — the
        array's membership wherever it is recorded: every holder rewrites
        its record behind the epoch fence, then every owner reseeds its
        mirrors under the new chains.  True when every owner reseeded, so
        that no older mirror is the last copy of anything.

        The move publishes ``strict``: requests are routed from the
        caller's processor and the first that fails raises.  The rollback
        publishes best-effort: every request runs inside the *target's*
        own execution context, so it executes node-locally with zero
        routed messages — the fault injector that failed the forward pass
        (drops, duplicate storms, kills) cannot also eat the restore — and
        each is individually best-effort against concurrent death, but
        never against message faults.  Either way an unreachable
        processor is passed over: it keeps its old record at the old
        epoch — exactly what the fencing check (docs/fault_model.md §9)
        exists to refuse if it was falsely suspected and returns.
        """

        def ask(request_type: str, processor: int, *parameters: Any) -> bool:
            if self.machine.is_unavailable(processor):
                return False
            try:
                self._ask(
                    request_type, processor, kind, state.array_id, *parameters,
                    in_place=not strict,
                )
            except Exception:  # noqa: BLE001 - best effort unless strict
                if strict:
                    raise
            return True

        processors, replica_map, _epoch = membership
        for holder in sorted(holders):
            ask("update_membership_local", holder, *membership)
        reseeded = True
        if state.replication > 0 and replica_map is not None:
            for owner in processors:
                reseeded &= ask("reseed_replicas_local", owner)
        return reseeded

    def _forget(
        self, state: Any, kind: str, roleless: Any, in_place: bool = False
    ) -> None:
        """Have each of ``roleless`` forget the array, record and mirrors:
        processors the membership just decided leaves without a role — no
        section, no mirror to keep — which no ``free_array`` will ever
        reach.  Never the creating processor, whose record must go on
        answering (§5.1.4).  After a commit they are the former owners,
        after a rollback the destinations the restored membership does
        not name.  Either way not before every owner has reseeded: until
        then a mirror one keeps may be the last copy of a section, the
        fallback :meth:`_section_data` sweeps for if the plan dies on the
        way.  Best-effort: the membership is decided, and a processor
        that cannot be told only keeps what it kept before."""
        for processor in sorted(set(roleless) - {state.array_id.creating_processor}):
            if not self.machine.is_unavailable(processor):
                with suppress(Exception):
                    self._ask(
                        "free_local", processor, kind, state.array_id,
                        in_place=in_place,
                    )

    # -- rollback -------------------------------------------------------------

    def _abort_locked(
        self,
        state: Any,
        plan: PlacementPlan,
        sourced: List[Tuple[SectionMove, np.ndarray]],
    ) -> None:
        """Rollback of a half-executed plan.

        Restores every sourced section onto the *current* authoritative
        owner (``state.processors`` — concurrent recovery may have
        rewritten it while we were mid-plan) under a freshly drawn epoch,
        above the entry epoch, the abandoned plan's and any a nested
        recovery committed, so straggling yields and replica updates
        stamped with either are refused as stale, then publishes that
        membership and epoch best-effort (:meth:`_publish`) to every
        holder and every destination.  The rewrite is what retracts the
        abandoned adopt: a destination frees a section the restored
        membership places elsewhere, and keeps one it names it for —
        which a nested recovery may have installed there meanwhile.  A
        destination left without a role then forgets the array
        (:meth:`_forget`).

        Every request runs in place on its target, and dead processors
        are skipped — each step is individually best-effort against
        concurrent death, but never against message faults.
        """
        kind = plan.reason
        restore_procs = tuple(state.processors)
        rollback_epoch = state.allocate_epoch()
        membership = (restore_procs, state.replica_map, rollback_epoch)
        with self._lock:
            self.aborts += 1
        for move, data in sourced:
            owner = restore_procs[move.section]
            if not self.machine.is_unavailable(owner):
                with suppress(Exception):
                    self._adopt(
                        state, membership, data, owner, kind, in_place=True
                    )
        dests = {move.dest for move, _ in sourced}
        holders = (
            set(restore_procs)
            | set(plan.base_processors)
            | {state.array_id.creating_processor}
            | dests
        )
        reseeded = self._publish(
            state, membership, holders, kind, strict=False
        )
        state.epoch = rollback_epoch
        if reseeded:
            self._forget(
                state, kind, dests - set(restore_procs), in_place=True
            )

    # -- plumbing -------------------------------------------------------------

    def _yield(
        self, array_id: Any, epoch: int, processor: int, kind: str
    ) -> np.ndarray:
        """The section ``processor`` surrenders: copied out and freed
        there, and refused unless its record is at ``epoch``."""
        return self._ask(
            "yield_section_local", processor, kind, array_id, epoch, out=True
        )

    def _adopt(
        self, state: Any, membership: tuple, data: np.ndarray,
        processor: int, kind: str, in_place: bool = False,
    ) -> None:
        """Install ``data`` as the section ``processor`` owns under
        ``membership`` — ``(processors, replica_map, epoch)`` — made to
        the array's current layout (``state.layout``)."""
        processors, replica_map, epoch = membership
        self._ask(
            "adopt_section",
            processor,
            kind,
            state.array_id,
            state.type_name,
            state.layout,
            processors,
            state.replication,
            replica_map,
            epoch,
            data,
            in_place=in_place,
        )

    def _ask(
        self,
        request_type: str,
        processor: int,
        kind: str,
        *parameters: Any,
        out: bool = False,
        in_place: bool = False,
    ) -> Any:
        """One status-checked server request on ``processor``: raises
        unless it answers OK (:func:`~repro.status.check_status` — the
        exception carries the status).  With ``out`` the handler is given
        an out variable before its status, and what it defined there is
        returned.  ``in_place`` issues the request from the target's own
        execution context: it runs node-locally, no message is routed."""
        machine = self.machine
        status = DefVar(f"{request_type}_status@{processor}")
        result = DefVar(f"{request_type}@{processor}") if out else None
        machine.server.request(
            request_type,
            *parameters,
            *((result, status) if out else (status,)),
            processor=processor,
            kind=kind,
            source=processor if in_place else None,
        )
        check_status(
            status.read(timeout=machine.default_recv_timeout),
            f"placement request {request_type!r} on processor {processor}",
        )
        return result.read() if out else None
