"""Durable distributed arrays: replication, checkpoints, and recovery.

PR 1 made distributed *calls* survive VP death; this module makes
distributed *array state* survive it.  Three cooperating mechanisms, all
riding the PR 2 message fabric so tracing, metering, and fault injection
see every byte they move:

* **Section replication** — ``create_array(..., replication=k)`` assigns
  each local section a deterministic backup chain (a :class:`ReplicaMap`
  computed by :meth:`~repro.arrays.layout.ArrayLayout.replica_chains`).
  Every manager-mediated commit ships one routed ``kind="replica_update"``
  message per backup, stamped with the array's current **epoch** and
  carrying the mutations the owner applied; backups replay them into a
  mirror of the section interior in their own address space.

* **Checkpoint/restore** — ``ArrayManager.checkpoint`` quiesces writers
  at an epoch barrier (one :class:`~repro.spmd.comm.GroupComm` barrier
  with every owner's write lock held) and serializes each section into an
  :class:`ArraySnapshot`; ``restore`` writes a snapshot back under a
  fresh epoch.

* **Recovery** — a :class:`RecoveryCoordinator` subscribed to the
  machine's failure notifications rebuilds the dead processor's sections
  onto a spare VP from the surviving replicas (or the latest checkpoint
  when ``replication=0``), rewrites the replica map, and bumps the array
  epoch so stale in-flight replica updates from the dead attempt are
  rejected rather than resurrected.

Epoch rules (the consistency contract):

1. epochs are per-array, start at 0, and never decrease;
2. every replica update carries the writing owner's current epoch; a
   backup rejects updates older than its mirror's epoch;
3. checkpoint, restore, recovery, migration and a migration's rollback
   each commit a new epoch, so data from before the cut / the dead
   attempt is identifiable and refusable;
4. an epoch number is *allocated*, never computed: each of those draws
   its number from :meth:`DurabilityState.allocate_epoch` when it starts,
   so no two plans — not even a recovery nested inside a migration —
   ever hold the same fencing token.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.arrays.layout import ArrayLayout
from repro.arrays.local_section import dtype_for
from repro.arrays.placement import PlacementPlan, SectionSourceError
from repro.arrays.record import ArrayID
from repro.arrays.redistribute import blocks, dense, transfers
from repro.obs.spans import span as obs_span
from repro.perf.coalescer import apply_mutations, mutations_nbytes
from repro.status import StalePlanError

REPLICA_UPDATE_KIND = "replica_update"


# -- replica placement --------------------------------------------------------


@dataclass(frozen=True)
class ReplicaMap:
    """Deterministic backup chain per section.

    ``chains[section]`` lists the processors mirroring that section, in
    chain order — the next ``replication`` distinct owners after the
    section's own processor in the array's processor ring, so the same
    ``(processors, replication)`` pair always yields the same placement.
    """

    chains: Tuple[Tuple[int, ...], ...]

    @classmethod
    def assign(
        cls,
        layout: ArrayLayout,
        processors: Tuple[int, ...],
        replication: int,
    ) -> "ReplicaMap":
        return cls(tuple(layout.replica_chains(processors, replication)))

    def backups_for(self, section: int) -> Tuple[int, ...]:
        return self.chains[section]

    def hosts(self) -> set:
        """Every processor that mirrors at least one section."""
        return {proc for chain in self.chains for proc in chain}


@dataclass(frozen=True)
class ReplicaUpdate:
    """One epoch-stamped commit shipped to a section's backups.

    ``mutations`` is the ordered tuple of ``(target, value)`` pairs the
    owner just committed (the vocabulary of :mod:`repro.perf.coalescer`):
    one pair for a single write, the whole batch for a coalescer flush —
    replayed in one mirror-lock acquisition, so a flush costs one replica
    message per backup instead of one per write.  ``shape``/``type_name``
    let a backup materialise the mirror lazily on first contact.
    """

    array_id: ArrayID
    section: int
    epoch: int
    shape: Tuple[int, ...]
    type_name: str
    mutations: tuple

    @property
    def nbytes(self) -> int:
        return mutations_nbytes(self.mutations)


class _ReplicaEntry:
    __slots__ = ("epoch", "data")

    def __init__(self, epoch: int, data: np.ndarray) -> None:
        self.epoch = epoch
        self.data = data


class ReplicaStore:
    """Per-processor storage for section mirrors (lives in the node heap,
    so replicas occupy the backup's address space like any other data)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: Dict[Tuple[ArrayID, int], _ReplicaEntry] = {}

    def apply(self, update: ReplicaUpdate) -> bool:
        """Apply one update; returns False when it is stale (older epoch
        than the mirror — e.g. an in-flight write from a dead attempt
        arriving after recovery bumped the array epoch)."""
        key = (update.array_id, update.section)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                entry = _ReplicaEntry(
                    update.epoch,
                    np.zeros(update.shape, dtype=dtype_for(update.type_name)),
                )
                self._entries[key] = entry
            if update.epoch < entry.epoch:
                return False
            entry.epoch = update.epoch
            apply_mutations(entry.data, update.mutations)
            return True

    def fetch(
        self, array_id: ArrayID, section: int
    ) -> Optional[Tuple[int, np.ndarray]]:
        with self._lock:
            entry = self._entries.get((array_id, section))
            if entry is None:
                return None
            return entry.epoch, entry.data.copy()

    def sections_for(self, array_id: ArrayID) -> List[int]:
        with self._lock:
            return sorted(
                s for (aid, s) in self._entries if aid == array_id
            )

    def drop_array(self, array_id: ArrayID) -> None:
        with self._lock:
            for key in [k for k in self._entries if k[0] == array_id]:
                del self._entries[key]


_REPLICA_STORE_KEY = "am.replicas"


def replica_store_for(node) -> ReplicaStore:
    """This node's replica store, made by whichever handler first needs
    one: two handlers on a fresh node get the same store."""
    store = node.load_default(_REPLICA_STORE_KEY)
    if store is None:
        store = node.load_or_store(_REPLICA_STORE_KEY, ReplicaStore())
    return store


# -- snapshots ----------------------------------------------------------------


@dataclass(frozen=True)
class ArraySnapshot:
    """A consistent cut of one distributed array at ``epoch``.

    ``sections[s]`` is a dense copy of section ``s``'s interior; the
    snapshot carries enough geometry to restore after the processor set
    changed (recovery remaps owners, sections are stable).
    """

    array_id: ArrayID
    epoch: int
    type_name: str
    layout: ArrayLayout
    processors: Tuple[int, ...]
    replication: int
    sections: Dict[int, np.ndarray]

    def nbytes(self) -> int:
        return sum(int(d.nbytes) for d in self.sections.values())

    def assemble(self) -> np.ndarray:
        """The global array this snapshot captured (test/diagnostic aid)."""
        layout = self.layout
        out = np.zeros(layout.dims, dtype=dtype_for(self.type_name))
        for section, _, _, box in transfers(
            blocks(layout), dense(tuple((0, d) for d in layout.dims))
        ):
            out[box] = self.sections[section]
        return out


# -- machine-wide durability bookkeeping --------------------------------------


@dataclass
class DurabilityState:
    """The array manager's machine-wide durability record for one array:
    authoritative epoch counter, current membership, replica placement,
    layout, latest checkpoint, recovery statistics, and the sections lost.

    ``layout`` is the array's one layout: ``verify_array`` changes it
    under ``lock`` once every holder has reallocated, and whatever makes
    a section (recovery, migration, rollback) or plans over the sections
    (halo plans, targeted region writes) reads it here.

    ``lost`` maps each section no copy of which can come back to its
    cause; it is the one thing recovery stores.  A section whose owner
    is unavailable and which is not lost is *pending*: its rebuild is
    still owed (no spare yet, or its mirror sits behind a partition)."""

    array_id: ArrayID
    replication: int
    processors: Tuple[int, ...]
    replica_map: Optional[ReplicaMap]
    type_name: str
    layout: ArrayLayout
    epoch: int = 0
    last_checkpoint: Optional[ArraySnapshot] = None
    sections_rebuilt: int = 0
    sections_migrated: int = 0
    stale_rejected: int = 0
    fenced_writes: int = 0
    lost: Dict[int, str] = field(default_factory=dict)
    lock: threading.RLock = field(
        default_factory=threading.RLock, repr=False, compare=False
    )
    # The highest epoch number handed out, committed or not.
    allocated_epoch: int = 0

    def allocate_epoch(self, above: int = 0) -> int:
        """A fresh epoch number — the only place one is made.  Strictly
        greater than the committed epoch, than every number drawn before
        (whether or not its plan went on to commit it) and than ``above``
        (a snapshot being restored carries an epoch of its own).  Whoever
        draws it commits by assigning it to ``epoch``, under ``lock``."""
        with self.lock:
            latest = max(self.allocated_epoch, self.epoch, above)
            self.allocated_epoch = latest + 1
            return self.allocated_epoch

    @property
    def last_checkpoint_epoch(self) -> Optional[int]:
        snapshot = self.last_checkpoint
        return None if snapshot is None else snapshot.epoch

    def note_stale(self) -> None:
        with self.lock:
            self.stale_rejected += 1

    def note_fenced(self) -> None:
        """One write/adopt/batch refused by the epoch fencing token (a
        stale owner — e.g. the minority side of a healed partition —
        attempted to commit)."""
        with self.lock:
            self.fenced_writes += 1

    def placement(self) -> dict:
        """``{section: {"owner", "backups"}}`` under the state lock."""
        with self.lock:
            return {
                section: {
                    "owner": int(owner),
                    "backups": (
                        list(self.replica_map.backups_for(section))
                        if self.replica_map is not None
                        else []
                    ),
                }
                for section, owner in enumerate(self.processors)
            }

    def diagnostics(self) -> dict:
        with self.lock:
            return {
                "replication": self.replication,
                "processors": list(self.processors),
                "epoch": self.epoch,
                "last_checkpoint_epoch": self.last_checkpoint_epoch,
                "sections_rebuilt": self.sections_rebuilt,
                "sections_migrated": self.sections_migrated,
                "stale_replica_updates_rejected": self.stale_rejected,
                "fenced_writes": self.fenced_writes,
                "lost": dict(self.lost),
                "placement": self.placement(),
            }


# -- recovery -----------------------------------------------------------------


class RecoveryCoordinator:
    """Rebuilds lost sections when a virtual processor dies.

    Subscribes to the machine's failure notifications
    (:meth:`~repro.vp.machine.Machine.add_failure_listener`); on a death
    it walks every durable array, copies each lost section out of the
    first surviving backup in its chain (or the latest checkpoint when
    the array has no replicas), adopts it onto a spare VP, rewrites the
    replica map deterministically for the new membership, reseeds the
    mirrors, and bumps the array epoch.

    Registration is idempotent: the machine deduplicates listeners by
    identity and :func:`install_recovery` returns the machine's existing
    coordinator.  A rebuild never runs twice, even under two distinct
    coordinators (e.g. in nested supervised calls): the first one moves
    the section off the dead owner, and recovery only acts on an owner
    that still holds a section that is not lost.
    """

    def __init__(self, machine) -> None:
        self.machine = machine
        self._installed = False
        self.recoveries: List[dict] = []
        self._lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------------

    def install(self) -> "RecoveryCoordinator":
        if not self._installed:
            health = getattr(self.machine, "_health", None)
            if health is not None and getattr(health, "installed", False):
                # A failure detector is the machine's health authority:
                # death notifications arrive as detector verdicts (which
                # include oracle kills — the detector subscribes to those
                # itself), so recovery has exactly one source of truth.
                health.add_listener(self._on_health_event)
            else:
                self.machine.add_failure_listener(self._on_failure)
            self._installed = True
        return self

    def uninstall(self) -> None:
        if self._installed:
            self.machine.remove_failure_listener(self._on_failure)
            health = getattr(self.machine, "_health", None)
            if health is not None:
                health.remove_listener(self._on_health_event)
            self._installed = False

    def __enter__(self) -> "RecoveryCoordinator":
        return self.install()

    def __exit__(self, *exc_info: Any) -> None:
        self.uninstall()

    # -- failure handling ----------------------------------------------------

    def _on_health_event(self, event) -> None:
        """Detector verdict: only a hardened ``"dead"`` triggers
        rebuilds.  Suspicion (and flapping back to alive) deliberately
        does nothing — recovery is destructive to the suspect's
        ownership, so it waits for confirmation.  A VP *returning* to
        the fabric re-runs recovery for the pending sections."""
        if event.transition == "dead":
            self._on_failure(event.vp)
        elif event.transition in ("alive", "rejoin"):
            self._retry_pending()

    def _retry_pending(self) -> None:
        """Re-run recovery for every unavailable VP: it acts on the
        pending sections such a VP owns, and on nothing else.

        A rebuild stays owed when no spare was free, or when the only
        surviving backup sat on the minority side of a partition (the
        replica fetch timed out).  The VP that just returned may be the
        spare or hold that backup; a retry that fails again leaves the
        section pending, or lost once no source can come back."""
        for vp in range(self.machine.num_nodes):
            if self.machine.is_unavailable(vp):
                self._on_failure(vp)

    def _on_failure(self, dead: int) -> None:
        manager = getattr(self.machine, "_array_manager", None)
        if manager is None:
            return
        for array_id, state in manager.durability_states():
            self._recover_array(array_id, state, dead)

    def _recover_array(
        self, array_id: ArrayID, state: DurabilityState, dead: int
    ) -> None:
        """One recovery episode: rebuild ``dead``'s sections of one array
        and log what came of it — the one place an episode is logged.  An
        error is recorded in the episode, never raised: this runs beneath
        the transport.  Nothing happens unless ``dead`` still owns a
        section that is not lost."""
        event: dict = {
            "array": array_id.as_tuple(),
            "dead": dead,
            "sections": [],
            "ok": False,
        }
        with state.lock:
            if all(
                section in state.lost
                for section, owner in enumerate(state.processors)
                if owner == dead
            ):
                return
            try:
                with obs_span(
                    self.machine, "recovery",
                    array=str(array_id.as_tuple()), dead=dead,
                ):
                    if not self._rebuild_locked(state, dead, event):
                        return
            except Exception as exc:  # noqa: BLE001 - never break transport
                event["error"] = repr(exc)
        with self._lock:
            self.recoveries.append(event)

    def _rebuild_locked(
        self, state: DurabilityState, dead: int, event: dict
    ) -> bool:
        """Rebuild ``dead``'s sections and fill in ``event``, the episode;
        ``state.lock`` is held throughout.  False when a nested rebuild
        left nothing to do, and there is no episode to log.

        All bookkeeping (the episode, ``state.lost``) stays here; the
        actual section movement — sourcing from replicas/checkpoints,
        adoption, membership rewrite, epoch bump — is one
        :class:`~repro.arrays.placement.PlacementPlan`
        executed by the machine's :class:`~repro.arrays.placement
        .SectionMover`, the one planned migration uses.
        """
        machine = self.machine
        # The plan is recomputed per attempt: a kill firing during this
        # rebuild's own traffic runs recovery *reentrantly* (state.lock
        # is an RLock), and the nested rebuild rewrites membership under
        # us — execute_locked detects that and raises StalePlanError
        # rather than committing a plan whose base no longer exists.
        for _attempt in range(3):
            if dead not in state.processors:
                # A nested rebuild already superseded this owner.
                return False
            # The spare: the first alive VP holding no section.
            spare = next(
                (
                    p
                    for p in range(machine.num_nodes)
                    if p not in state.processors
                    and not machine.is_unavailable(p)
                ),
                None,
            )
            if spare is None:
                event["error"] = "no spare processor"
                return True
            event["spare"] = spare
            plan = PlacementPlan.for_failure(state, dead, spare)
            try:
                # No origin named: the mover asks from the first alive VP.
                outcome = machine._array_manager.mover.execute_locked(
                    state, plan
                )
            except StalePlanError:
                continue
            except SectionSourceError as exc:
                # Lost only when no source can come back: a VP the
                # detector gave up on but the oracle never killed (one
                # behind a partition) may still hold a mirror.
                if not any(
                    machine.is_unavailable(p) and not machine.is_failed(p)
                    for p in range(machine.num_nodes)
                ):
                    state.lost[exc.section] = (
                        f"owner {dead} failed and no replica or "
                        "checkpoint of it survives"
                    )
                event["error"] = f"section {exc.section} unrecoverable"
                return True
            event.update(outcome, ok=True)  # its sections and epoch
            return True
        event["error"] = "stale plan after retries"
        return True


def install_recovery(machine) -> RecoveryCoordinator:
    """Install (or return) the machine's recovery coordinator.

    Idempotent like :func:`~repro.arrays.manager.install_array_manager`:
    a machine has at most one coordinator, and repeated installation —
    e.g. from nested ``supervised_call``\\ s — never double-subscribes.
    """
    existing = getattr(machine, "_recovery_coordinator", None)
    if existing is not None:
        return existing.install()
    coordinator = RecoveryCoordinator(machine)
    machine._recovery_coordinator = coordinator  # type: ignore[attr-defined]
    return coordinator.install()
