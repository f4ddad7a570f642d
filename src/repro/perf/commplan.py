"""Precompiled halo-exchange communication plans (ROADMAP item 5).

Every stencil sweep used to discover its communication on demand —
per-edge strips sent the moment a sweep needed them.  But the pattern is
fully determined by the :class:`~repro.arrays.layout.ArrayLayout` before
the first iteration: which sections are adjacent, which interior slices
feed which border slices, and how deep the exchange must be.  This module
compiles that knowledge once into a :class:`CommPlan` and ships it as
fused ``kind="halo_bulk"`` messages — **one** message per neighbour per
exchange phase, issued ahead of the compute phase and overlapped with
interior work through the ``prefetch()/complete()`` split.

Deep borders buy communication *avoidance* on top of fusion: with
uniform borders of depth ``d``, one exchange of depth ``k <= d`` is
enough for ``k`` consecutive 5-point sweeps.  Each copy redundantly
recomputes a shrinking frame of its halo cells (sweep ``j`` updates the
region extended by ``k-1-j`` cells toward every neighbour), and because
that frame computation runs the *same arithmetic on the same values* as
the neighbour's own interior update, the result is bit-identical to
exchanging every sweep — the sequential-equivalence argument in
``docs/performance.md``.

Corner data never travels diagonally.  A rank-2 exchange runs two
ordered stages: stage 0 swaps row strips spanning only interior columns;
stage 1 swaps column strips spanning the *full* row range including the
freshly filled stage-0 halo rows, so each east/west strip relays the
diagonal neighbour's corner block through the orthogonal neighbour.  On
physical edges the relayed rows carry the sender's fixed boundary cells —
exactly the values the receiver's frame computation must read there.

Epoch correctness rides the existing ``STALE_EPOCH`` machinery: a plan
captures ``(epoch, processors)`` at compile time and the registry
revalidates both against the durability state on every fetch (recovery,
``migrate_sections``, ``rebalance_array`` and rejoin all bump the
epoch).  Every strip is stamped with the sender's record epoch and the
``halo_bulk`` kind handler refuses stale strips the same way the write
path does — ``note_fenced`` plus the ``repro_fenced_writes_total``
counter — so a stale plan can *never* fill a border.

Delivery discipline: the kind handler never touches section storage.  It
fences, deduplicates, and stashes the strip in a per-``(edge, call,
phase)`` rendezvous :class:`~repro.pcn.defvar.DefVar`; the receiving
copy's own thread claims and applies it inside ``complete()``.  A strip
from a later phase (or an aborted earlier call) therefore sits inert
until claimed and can never race a kernel mid-sweep, and application is
exactly-once under drop/duplicate fault injection because each
rendezvous variable is single-assignment and claimed once.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterable, List, Optional

from repro.obs.spans import span as obs_span
from repro.pcn.defvar import DefVar
from repro.perf.coalescer import define_once
from repro.status import ProcessorFailedError, SingleAssignmentError
from repro.vp.message import Message

HALO_BULK_KIND = "halo_bulk"
# Bytes a ``halo_bulk`` message carries beside its cells.
STRIP_HEADER = 64

# Receiver-relative side names — the side of the *destination* section a
# strip lands on.  Rank 2 uses compass names (axis 0 = rows, axis 1 =
# columns); rank 1 reuses west/east along its single axis.
_SIDE_NAMES = {
    2: {
        (0, "low"): "north",
        (0, "high"): "south",
        (1, "low"): "west",
        (1, "high"): "east",
    },
    1: {(0, "low"): "west", (0, "high"): "east"},
}


class StalePlanError(RuntimeError):
    """A halo transfer was fenced by the epoch machinery: the plan (or a
    peer's record) predates a membership rewrite.  Callers recompile via
    :meth:`PlanRegistry.halo_plan` and retry the phase — distributed-call
    supervision does exactly that by failing and re-running the call."""


class PlanEdge:
    """One directed neighbour adjacency: data flows ``src_section ->
    dest_section`` and lands on the destination's ``side``."""

    __slots__ = ("axis", "direction", "side", "stage", "src_section",
                 "dest_section")

    def __init__(self, axis: int, direction: str, side: str, stage: int,
                 src_section: int, dest_section: int) -> None:
        self.axis = axis
        self.direction = direction
        self.side = side
        self.stage = stage
        self.src_section = src_section
        self.dest_section = dest_section

    def __repr__(self) -> str:
        return (f"<PlanEdge {self.src_section}->{self.dest_section} "
                f"side={self.side} stage={self.stage}>")


class Transfer:
    """A :class:`PlanEdge` made concrete at exchange depth ``k``:
    ``src_slices`` select the sender's interior strip in its full
    (bordered) view, ``dest_slices`` the receiver's border cells."""

    __slots__ = ("edge", "depth", "src_slices", "dest_slices")

    def __init__(self, edge: PlanEdge, depth: int,
                 src_slices: tuple, dest_slices: tuple) -> None:
        self.edge = edge
        self.depth = depth
        self.src_slices = src_slices
        self.dest_slices = dest_slices


class HaloStrip:
    """The payload of one ``kind="halo_bulk"`` message.

    ``token`` is ``(call group, phase index)`` — unique per exchange
    phase, so duplicated, delayed, or orphaned strips can never collide
    with a later phase's rendezvous.  ``epoch`` is the sender's record
    epoch at capture time; the receiver's kind handler fences strips
    older than the authoritative durability epoch.  ``done`` is the
    acknowledgement variable the sender's retry loop waits on.  ``key``
    is the strip's rendezvous key, ``(edge prefix, token)``: a schedule
    passes the prefix it compiled, a strip built by hand derives it.
    """

    __slots__ = ("array_id", "src_section", "dest_section", "side", "stage",
                 "token", "epoch", "dest_slices", "data", "done", "_key",
                 "nbytes")

    def __init__(self, array_id: Any, src_section: int, dest_section: int,
                 side: str, stage: int, token: tuple, epoch: int,
                 dest_slices: tuple, data: Any,
                 done: Optional[DefVar], key: Optional[tuple] = None) -> None:
        self.array_id = array_id
        self.src_section = src_section
        self.dest_section = dest_section
        self.side = side
        self.stage = stage
        self.token = token
        self.epoch = epoch
        self.dest_slices = dest_slices
        self.data = data
        self.done = done
        self._key = key if key is not None else (
            (array_id.as_tuple(), src_section, dest_section, side, stage),
            token,
        )
        # The simulated wire size ``Message.nbytes`` reads.
        self.nbytes = int(getattr(data, "nbytes", 8)) + STRIP_HEADER

    def key(self) -> tuple:
        return self._key

    def __repr__(self) -> str:
        return (f"<HaloStrip {self.array_id} {self.src_section}->"
                f"{self.dest_section} side={self.side} stage={self.stage} "
                f"token={self.token} epoch={self.epoch}>")


class Schedule:
    """One section's part in one exchange phase, in the order it is run.

    ``stages`` holds, for each plan stage in which the section has a
    transfer, ``(stage, sends, receives)``: a send is ``(dest_section,
    side, src_slices, dest_slices, key_prefix)`` and a receive ``(side,
    key_prefix)``, with ``key_prefix = (array, src_section, dest_section,
    side, stage)`` — the edge.  A strip is parked and claimed under
    ``(key_prefix, token)``, so a phase builds one pair per strip and
    nothing else.  ``sides`` is where the section receives at all: where
    it has a neighbour, on a side the schedule covers."""

    __slots__ = ("stages", "sides")

    def __init__(self, stages: tuple) -> None:
        self.stages = stages
        self.sides = frozenset(
            side for _, _, receives in stages for side, _ in receives
        )


def compile_halo_plan(op: str, array_id: Any, layout: Any, epoch: int,
                      processors: tuple) -> Optional["CommPlan"]:
    """Compile the exchange schedule for ``(op, layout)``, or None when
    the geometry is out of scope (rank > 2, missing or non-uniform
    borders)."""
    if layout.rank not in (1, 2):
        return None
    widths = set(layout.borders)
    if len(widths) != 1:
        return None
    pad = widths.pop()
    if pad < 1:
        return None
    return CommPlan(op, array_id, layout, pad, epoch, processors)


class HaloGeometry:
    """The cells a halo exchange moves, derived from a block layout with
    uniform borders ``pad`` deep and from nothing else: one directed
    :class:`PlanEdge` per neighbour adjacency, made concrete at a depth
    by :meth:`transfers`.  It is bound to no array — a :class:`CommPlan`
    adds that; the per-sweep reference
    (:func:`repro.spmd.stencil.exchange_halos`) reads its slices here
    too, so a halo's cells are named in this class only."""

    __slots__ = ("layout", "pad", "depth", "stages", "edges")

    def __init__(self, layout: Any, pad: int) -> None:
        self.layout = layout
        self.pad = pad
        # A depth-k exchange ships k interior cells per side, so the
        # usable depth is clipped by the thinnest local dimension.
        self.depth = min(pad, min(layout.local_dims))
        self.stages = 2 if layout.rank == 2 else 1
        names = _SIDE_NAMES[layout.rank]
        self.edges: List[PlanEdge] = []
        for dest in range(layout.num_sections):
            for (axis, direction), src in sorted(
                layout.grid_neighbors(dest).items()
            ):
                self.edges.append(
                    PlanEdge(
                        axis=axis,
                        direction=direction,
                        side=names[(axis, direction)],
                        stage=axis if layout.rank == 2 else 0,
                        src_section=src,
                        dest_section=dest,
                    )
                )

    def _slices(self, edge: PlanEdge, k: int) -> tuple:
        """(src_slices, dest_slices) for ``edge`` at exchange depth ``k``.

        Stage 0 strips span interior columns only; stage 1 strips span
        the full row range ``[pad-k, pad+h+k)`` — including the stage-0
        halo rows — which is what relays corner data without diagonal
        messages.
        """
        d = self.pad
        if self.layout.rank == 1:
            (length,) = self.layout.local_dims
            if edge.direction == "low":  # from the west neighbour
                return ((slice(d + length - k, d + length),),
                        (slice(d - k, d),))
            return ((slice(d, d + k),),
                    (slice(d + length, d + length + k),))
        h, w = self.layout.local_dims
        if edge.axis == 0:
            cols = slice(d, d + w)
            if edge.direction == "low":  # from the north neighbour
                return ((slice(d + h - k, d + h), cols),
                        (slice(d - k, d), cols))
            return ((slice(d, d + k), cols),
                    (slice(d + h, d + h + k), cols))
        rows = slice(d - k, d + h + k)
        if edge.direction == "low":  # from the west neighbour
            return ((rows, slice(d + w - k, d + w)),
                    (rows, slice(d - k, d)))
        return ((rows, slice(d, d + k)),
                (rows, slice(d + w, d + w + k)))

    def transfers(self, k: int, section: Optional[int] = None,
                  role: Optional[str] = None,
                  stage: Optional[int] = None) -> List[Transfer]:
        """The concrete transfer list at depth ``k``, optionally filtered
        to one section's sends (``role="send"``) or receives
        (``role="recv"``) and/or one stage."""
        if not 1 <= k <= self.depth:
            raise ValueError(
                f"exchange depth {k} outside [1, {self.depth}] for "
                f"{self.layout.local_dims} sections bordered {self.pad} deep"
            )
        out = []
        for edge in self.edges:
            if stage is not None and edge.stage != stage:
                continue
            if section is not None:
                if role == "send" and edge.src_section != section:
                    continue
                if role == "recv" and edge.dest_section != section:
                    continue
                if role is None and section not in (edge.src_section,
                                                    edge.dest_section):
                    continue
            src, dest = self._slices(edge, k)
            out.append(Transfer(edge, k, src, dest))
        return out


class CommPlan(HaloGeometry):
    """The compiled halo-exchange schedule for one ``(op, array)`` at one
    ``(epoch, processors)`` membership: the layout's
    :class:`HaloGeometry` bound to the array whose strips it ships."""

    __slots__ = ("op", "array_id", "epoch", "processors", "tag",
                 "_schedules")

    def __init__(self, op: str, array_id: Any, layout: Any, pad: int,
                 epoch: int, processors: tuple) -> None:
        super().__init__(layout, pad)
        self.op = op
        self.array_id = array_id
        self.epoch = epoch
        self.processors = tuple(processors)
        self.tag = (HALO_BULK_KIND, array_id.as_tuple())
        # (section, k, sides) -> Schedule, compiled on first use and kept
        # for the life of the plan.  Two copies racing to compile the same
        # entry build equal, immutable schedules, so no lock is needed.
        self._schedules: Dict[tuple, Schedule] = {}

    def schedule(self, section: int, k: int,
                 sides: Optional[frozenset] = None) -> "Schedule":
        """What ``section`` posts and claims in one phase at depth ``k``
        (see :class:`Schedule`): :meth:`transfers` filtered per role and
        stage once, with every key a strip is parked and claimed under
        already built.  ``sides`` keeps only the strips that land on those
        receiver-relative sides — in the last stage: an earlier stage's
        strips are what the last one relays, so they always travel."""
        found = self._schedules.get((section, k, sides))
        if found is None:
            found = self._schedules[(section, k, sides)] = self._compile(
                section, k, sides
            )
        return found

    def _compile(self, section: int, k: int,
                 sides: Optional[frozenset]) -> "Schedule":
        aid = self.array_id.as_tuple()
        stages = []
        for stage in range(self.stages):
            sends = tuple(
                (t.edge.dest_section, t.edge.side, t.src_slices,
                 t.dest_slices,
                 (aid, section, t.edge.dest_section, t.edge.side, stage))
                for t in self.transfers(k, section, "send", stage)
            )
            receives = tuple(
                (t.edge.side,
                 (aid, t.edge.src_section, section, t.edge.side, stage))
                for t in self.transfers(k, section, "recv", stage)
            )
            if sends or receives:
                stages.append((stage, sends, receives))
        if sides is not None and stages:
            stage, sends, receives = stages[-1]
            stages[-1] = (
                stage,
                tuple(send for send in sends if send[1] in sides),
                tuple(recv for recv in receives if recv[0] in sides),
            )
        return Schedule(tuple(stages))

    def begin(self, registry: "PlanRegistry", record: Any, full: Any,
              section: int, k: int, token: tuple, source: int,
              sides: Optional[Iterable[str]] = None) -> "HaloExchange":
        """Open one exchange phase for ``section`` at depth ``k``.

        ``sides`` names the borders the kernel reads (default: all).
        Every copy of a call passes the same ones, so a strip that would
        land on any other side is neither posted nor waited for."""
        return HaloExchange(registry, self, record, full, section, k,
                            token, source, sides)


class HaloExchange:
    """One phase of planned halo traffic for one section.

    The exchange walks the :class:`Schedule` its plan compiled for
    ``(section, k, sides)``.  ``prefetch()`` posts the first stage's bulk
    sends and returns at once — the strips are in flight while the
    caller computes interior work.  ``complete()``
    settles the protocol: it secures acknowledgements for everything this
    copy sent (retrying dropped strips against the re-resolved owner,
    exactly the write-coalescer's retry discipline), claims the inbound
    strips of that stage, and — where the schedule has a further stage —
    posts the orthogonal strips that span the freshly filled halo rows,
    and claims those.  ``sides`` given at ``begin`` is part of the
    schedule: strips for other sides are neither posted nor claimed.

    Deadlock-freedom: acknowledgements are defined by the *delivery*
    thread the moment a strip is fenced/stashed, never by the peer copy's
    progress — so securing outbound acks before blocking on inbound
    strips cannot cycle even when both directions of an edge drop.
    """

    def __init__(self, registry: "PlanRegistry", plan: CommPlan, record: Any,
                 full: Any, section: int, k: int, token: tuple, source: int,
                 sides: Optional[Iterable[str]] = None) -> None:
        self.registry = registry
        self.plan = plan
        self.record = record
        self.full = full
        self.section = section
        self.k = k
        self.token = token
        self.source = source
        self.schedule = plan.schedule(
            section, k, None if sides is None else frozenset(sides)
        )
        self._pending: List[HaloStrip] = []
        self._claimed_strips = 0
        self._prefetched = False
        self._completed = False

    def receives(self, side: str) -> bool:
        """Does this exchange receive a strip on ``side`` (i.e. does the
        section have a neighbour there, on a side the exchange covers)?"""
        return side in self.schedule.sides

    # -- protocol ------------------------------------------------------------

    def prefetch(self) -> None:
        """Issue the first-stage halo sends.

        Flushes the write-behind coalescer for this array first, so a
        strip carries every acknowledged element write (the plan flush
        point, docs/performance.md).
        """
        if self._prefetched:
            return
        self.registry.flush_for(self.plan.array_id)
        if self.schedule.stages:
            self._post_stage(0)
        self._prefetched = True

    def complete(self) -> None:
        """Block until the halo cells on every side of the exchange hold
        this phase's data; settles all send acknowledgements."""
        if self._completed:
            return
        if not self._prefetched:
            self.prefetch()
        registry = self.registry
        if getattr(registry.machine, "_observer", None) is None:
            self._settle()
        else:
            with obs_span(
                registry.machine,
                "perf:halo",
                array=str(self.plan.array_id.as_tuple()),
                section=self.section,
                depth=self.k,
                phase=str(self.token),
            ) as span:
                self._settle()
                span.annotate(strips=self._claimed_strips)
        registry.exchanges += 1
        self._completed = True

    # -- internals -----------------------------------------------------------

    def _settle(self) -> None:
        # Every stage's strips must all land before the next stage's
        # sends read the halo rows they span.
        for index in range(len(self.schedule.stages)):
            if index:
                self._post_stage(index)
            self._secure_pending()
            self._claim_stage(index)

    def _owners(self) -> tuple:
        state = self.registry.manager.durability_state(self.plan.array_id)
        return (state.processors if state is not None
                else self.plan.processors)

    def _post_stage(self, index: int) -> None:
        stage, sends, _ = self.schedule.stages[index]
        array_id = self.plan.array_id
        section = self.section
        token = self.token
        epoch = self.record.epoch
        full = self.full
        owners = self._owners()  # once per stage; a reship re-resolves
        for dest_section, side, src_slices, dest_slices, prefix in sends:
            strip = HaloStrip(
                array_id, section, dest_section, side, stage, token, epoch,
                dest_slices, full[src_slices].copy(), DefVar("halo_ack"),
                (prefix, token),
            )
            self._route(strip, owners)
            self._pending.append(strip)

    def _route(self, strip: HaloStrip, owners: tuple) -> None:
        registry = self.registry
        machine = registry.machine
        dest = (owners[strip.dest_section]
                if strip.dest_section < len(owners) else None)
        if dest is None or machine.is_failed(dest):
            raise ProcessorFailedError(
                f"halo destination section {strip.dest_section} of "
                f"{strip.array_id} has no live owner"
            )
        if dest == self.source:
            registry.apply_strip(dest, strip)
            registry.inline_strips += 1
        else:
            machine.send(
                self.source,
                dest,
                strip,
                tag=self.plan.tag,
                kind=HALO_BULK_KIND,
            )
            registry.routed_strips += 1
        registry.strips_sent += 1

    def _reship(self, strip: HaloStrip) -> HaloStrip:
        fresh = HaloStrip(
            strip.array_id, strip.src_section, strip.dest_section,
            strip.side, strip.stage, strip.token, strip.epoch,
            strip.dest_slices, strip.data, DefVar("halo_ack"), strip.key(),
        )
        self._route(fresh, self._owners())
        return fresh

    def _secure_pending(self) -> None:
        registry = self.registry
        for strip in self._pending:
            current = strip
            for _attempt in range(registry.max_retries + 1):
                done = current.done
                if not done.data():
                    # About to suspend: name the variable for the wait
                    # graph and the timeout message (it is anonymous on
                    # the path where the ack is already there).
                    done.name = f"halo_ack[{current.dest_section}]"
                try:
                    outcome = done.read(timeout=registry.retry_timeout)
                except TimeoutError:
                    # Dropped or delayed in transit: reship the same
                    # (token, stage, side) unit — the receiver's
                    # single-assignment rendezvous deduplicates a late
                    # original.
                    registry.retries += 1
                    current = self._reship(current)
                    continue
                if outcome == "ok":
                    break
                if outcome == "stale":
                    raise StalePlanError(
                        f"halo strip {current!r} fenced as STALE_EPOCH: "
                        "plan predates a membership rewrite"
                    )
                # "not_found": the owner moved mid-phase (migration
                # between resolve and delivery) — chase the section to
                # its re-resolved home.
                registry.retries += 1
                current = self._reship(current)
            else:
                raise TimeoutError(
                    f"halo strip to section {strip.dest_section} of "
                    f"{strip.array_id} unacknowledged after "
                    f"{registry.max_retries + 1} attempts"
                )
        self._pending = []

    def _claim_stage(self, index: int) -> None:
        registry = self.registry
        timeout = registry.machine.default_recv_timeout
        token = self.token
        lock = self.record.lock
        full = self.full
        for _side, prefix in self.schedule.stages[index][2]:
            strip = registry.await_strip((prefix, token), timeout=timeout)
            with lock:
                full[strip.dest_slices] = strip.data
            self._claimed_strips += 1
            registry.strips_claimed += 1
            registry.bytes_claimed += strip.data.nbytes


class PlanRegistry:
    """Machine-wide plan cache + rendezvous state for halo exchanges.

    Plans are cached per ``(op, array)`` and revalidated against the
    durability state's ``(epoch, processors)`` on every fetch; recovery,
    migration, rebalance, and rejoin all bump the epoch, so their effect
    on cached plans is automatic invalidation with no extra locking.
    """

    def __init__(self, machine: Any, manager: Any) -> None:
        self.machine = machine
        self.manager = manager
        self.max_retries = 3
        self.retry_timeout = 5.0
        self.max_rendezvous = 4096
        self._lock = threading.Lock()
        self._plans: Dict[tuple, CommPlan] = {}
        self._rendezvous: Dict[tuple, DefVar] = {}
        self.compiled = 0
        self.hits = 0
        self.invalidations = 0
        self.exchanges = 0
        self.strips_sent = 0
        self.strips_claimed = 0
        self.bytes_claimed = 0
        self.inline_strips = 0
        self.routed_strips = 0
        self.duplicate_strips = 0
        self.stale_strips = 0
        self.not_found_strips = 0
        self.retries = 0

    # -- plan cache ----------------------------------------------------------

    def _layout_for(self, array_id: Any, state: Any) -> Any:
        for proc in state.processors:
            record = self.manager._lookup(
                self.machine.processor(proc), array_id
            )
            if record is not None:
                return record.layout
        return None

    def halo_plan(self, op: str, array_id: Any) -> Optional[CommPlan]:
        """The cached plan for ``(op, array_id)``, recompiled when the
        durability epoch or membership moved since compile time."""
        state = self.manager.durability_state(array_id)
        if state is None:
            return None
        procs = tuple(state.processors)
        # Resolve the live layout up front: `verify_array` can reallocate
        # sections with different border depths *without* bumping the
        # epoch, so geometry is part of plan validity alongside
        # (epoch, membership).
        layout = self._layout_for(array_id, state)
        if layout is None:
            return None
        key = (op, array_id.as_tuple())
        with self._lock:
            cached = self._plans.get(key)
            if cached is not None:
                if (cached.epoch == state.epoch
                        and cached.processors == procs
                        and cached.layout.borders == layout.borders
                        and cached.layout.local_dims
                        == layout.local_dims):
                    self.hits += 1
                else:
                    del self._plans[key]
                    self.invalidations += 1
                    cached = None
        if cached is not None:
            return cached
        plan = compile_halo_plan(op, array_id, layout, state.epoch, procs)
        if plan is None:
            return None
        with self._lock:
            self._plans[key] = plan
            self.compiled += 1
        return plan

    def engage(self, node: Any, section: Any, op: str) -> Optional[tuple]:
        """How a kernel engages a plan: ``(record, plan)`` of the managed
        array that ``section`` — the :class:`LocalSection` the kernel was
        handed on ``node`` — is a local section of, or None when no
        record holds it (a bare ndarray frame, a section made by hand) or
        its geometry is out of a plan's scope.  What a kernel is handed
        is the same kind of thing on every copy of a call, so all of them
        take the same branch."""
        record = self.manager.record_for_section(node, section)
        if record is None:
            return None
        plan = self.halo_plan(op, record.array_id)
        return None if plan is None else (record, plan)

    def drop_array(self, array_id: Any) -> None:
        aid = array_id.as_tuple()
        with self._lock:
            for key in [k for k in self._plans if k[1] == aid]:
                del self._plans[key]
            for key in [k for k in self._rendezvous if k[0][0] == aid]:
                del self._rendezvous[key]

    def flush_for(self, array_id: Any) -> None:
        # The registry is half of the machine's perf layer; the coalescer
        # is the other half.
        self.machine._perf.coalescer.flush(array_id)

    # -- rendezvous ----------------------------------------------------------

    def _rendezvous_var(self, key: tuple) -> DefVar:
        with self._lock:
            var = self._rendezvous.get(key)
            if var is None:
                if len(self._rendezvous) >= self.max_rendezvous:
                    # Evict the oldest entries — strips left unclaimed by
                    # aborted calls or skipped sides (insertion order is
                    # arrival order).
                    for old in list(self._rendezvous)[
                        : self.max_rendezvous // 4
                    ]:
                        del self._rendezvous[old]
                var = self._rendezvous[key] = DefVar("halo_strip")
        return var

    def await_strip(self, key: tuple, timeout: Optional[float]) -> HaloStrip:
        var = self._rendezvous_var(key)
        if not var.data():
            # About to suspend: name the variable for the wait graph and
            # the timeout message.  (Formatting the key costs as much as
            # the rest of a claim, so a strip that is already parked is
            # claimed from an anonymous variable.)
            var.name = f"halo{key}"
        outcome = var.read(timeout=timeout)
        with self._lock:
            self._rendezvous.pop(key, None)
        verdict, payload = outcome
        if verdict != "ok":
            raise StalePlanError(
                f"halo rendezvous {key} fenced as STALE_EPOCH "
                f"(sender epoch {payload})"
            )
        return payload

    # -- delivery (the halo_bulk kind handler) -------------------------------

    def deliver(self, message: Message) -> None:
        """Final delivery of one ``kind="halo_bulk"`` message."""
        self.apply_strip(message.dest, message.payload)

    def apply_strip(self, dest: int, strip: HaloStrip) -> None:
        """Fence -> dedup -> stash one strip arriving at ``dest``.

        Never writes section storage: the strip parks in its phase's
        rendezvous variable and the receiving copy's own thread copies it
        into the border cells inside ``HaloExchange.complete()``, so late
        or duplicated deliveries cannot race a kernel mid-sweep.
        """
        manager = self.manager
        node = self.machine.processor(dest)
        record = manager._lookup(node, strip.array_id)
        state = manager.durability_state(strip.array_id)
        if (record is None or record.section is None or state is None
                or strip.dest_section >= len(state.processors)
                or state.processors[strip.dest_section] != dest):
            # Not the authoritative owner (the section migrated away, or
            # never lived here): refuse without consuming the rendezvous,
            # so the sender's retry chases the re-resolved owner.
            self.not_found_strips += 1
            define_once(strip.done, "not_found")
            return
        if strip.epoch < state.epoch or record.epoch < state.epoch:
            # The STALE_EPOCH fence (docs/fault_model.md §9): the sender
            # compiled against a membership that has since been rewritten
            # — or this record itself was left behind by one.  Poison the
            # phase's rendezvous so a claiming receiver aborts with
            # StalePlanError instead of filling a border with stale data.
            self.stale_strips += 1
            manager._refuse_stale(strip.array_id, None)
            define_once(self._rendezvous_var(strip.key()),
                        ("stale", strip.epoch))
            define_once(strip.done, "stale")
            return
        var = self._rendezvous_var(strip.key())
        try:
            var.define(("ok", strip))
        except SingleAssignmentError:
            # Duplicate delivery (fault injection, or a retry racing the
            # delayed original): the first copy already parked here.
            self.duplicate_strips += 1
        define_once(strip.done, "ok")

    # -- introspection -------------------------------------------------------

    def diagnostics(self) -> dict:
        with self._lock:
            plans = len(self._plans)
            pending = len(self._rendezvous)
        return {
            "plans": plans,
            "compiled": self.compiled,
            "hits": self.hits,
            "invalidations": self.invalidations,
            "exchanges": self.exchanges,
            "strips_sent": self.strips_sent,
            "strips_claimed": self.strips_claimed,
            "bytes_claimed": self.bytes_claimed,
            "inline_strips": self.inline_strips,
            "routed_strips": self.routed_strips,
            "duplicate_strips": self.duplicate_strips,
            "stale_strips": self.stale_strips,
            "not_found_strips": self.not_found_strips,
            "retries": self.retries,
            "pending_rendezvous": pending,
        }
