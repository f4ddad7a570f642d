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

A plan is its layout's: which strips a phase ships, their slices and
their rendezvous keys follow from the layout alone, so a cached plan
serves every membership the array passes through and only a border
change (``verify_array`` committing a new layout) recompiles it.  What
keeps a strip from a superseded membership out of a border is the
strip's stamp and the delivery fence: every strip is stamped with the
sender's record epoch, its owner is read from the durability state at
every stage, and the ``halo_bulk`` kind handler refuses a strip older
than the authoritative epoch the same way the write path does —
``note_fenced``, counted in the array's ``fenced_writes`` — so a stale
strip can *never* fill a border.

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

from repro.arrays import redistribute
from repro.obs.spans import span as obs_span
from repro.pcn.defvar import DefVar
from repro.perf.coalescer import define_once
from repro.status import SingleAssignmentError, StalePlanError
from repro.vp.message import Message

HALO_BULK_KIND = "halo_bulk"
# Bytes a ``halo_bulk`` message carries beside its cells.
STRIP_HEADER = 64

# Receiver-relative side names — the side of the *destination* section a
# strip lands on, per axis ``(low side, high side)``.  Rank 2 uses compass
# names (axis 0 = rows, axis 1 = columns); rank 1 reuses west/east along
# its single axis.
_SIDE_NAMES = {
    2: (("north", "south"), ("west", "east")),
    1: (("west", "east"),),
}


class PlanEdge:
    """One directed neighbour adjacency: data flows ``src_section ->
    dest_section`` along ``axis`` and lands on the destination's
    ``side``."""

    __slots__ = ("axis", "side", "src_section", "dest_section")

    def __init__(self, axis: int, side: str, src_section: int,
                 dest_section: int) -> None:
        self.axis = axis
        self.side = side
        self.src_section = src_section
        self.dest_section = dest_section

    @property
    def stage(self) -> int:
        """The exchange stage that carries the edge: its axis."""
        return self.axis

    def __repr__(self) -> str:
        return (f"<PlanEdge {self.src_section}->{self.dest_section} "
                f"side={self.side} stage={self.axis}>")


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
    """The payload of one ``kind="halo_bulk"`` message: a unit of the perf
    layer's route for ``section``, the section whose border it fills.

    ``token`` is ``(call group, phase index)`` — unique per exchange
    phase, so duplicated, delayed, or orphaned strips can never collide
    with a later phase's rendezvous.  ``epoch`` is the sender's record
    epoch at capture time; the receiver's kind handler fences strips
    older than the authoritative durability epoch.  ``done`` is the
    acknowledgement variable the route waits on.  ``key`` is the strip's
    rendezvous key, ``(edge prefix, token)``: a schedule passes the
    prefix it compiled, a strip built by hand derives it.
    """

    __slots__ = ("array_id", "src_section", "section", "side", "stage",
                 "token", "epoch", "dest_slices", "data", "done", "_key",
                 "nbytes")
    kind = HALO_BULK_KIND

    def __init__(self, array_id: Any, src_section: int, section: int,
                 side: str, stage: int, token: tuple, epoch: int,
                 dest_slices: tuple, data: Any,
                 done: Optional[DefVar], key: Optional[tuple] = None) -> None:
        self.array_id = array_id
        self.src_section = src_section
        self.section = section
        self.side = side
        self.stage = stage
        self.token = token
        self.epoch = epoch
        self.dest_slices = dest_slices
        self.data = data
        self.done = done
        self._key = key if key is not None else (
            (array_id.as_tuple(), src_section, section, side, stage),
            token,
        )
        # The simulated wire size ``Message.nbytes`` reads.
        self.nbytes = int(getattr(data, "nbytes", 8)) + STRIP_HEADER

    def key(self) -> tuple:
        return self._key

    def label(self, dest: int) -> str:
        """The name of ``done`` while its sender waits on ``dest``."""
        return f"halo_ack[{self.section}]@{dest}"

    def __repr__(self) -> str:
        return (f"<HaloStrip {self.array_id} {self.src_section}->"
                f"{self.section} side={self.side} stage={self.stage} "
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


def compile_halo_plan(array_id: Any, layout: Any) -> Optional["CommPlan"]:
    """Compile the exchange schedule for ``array_id``'s ``layout``, or
    None when the geometry is out of scope (rank > 2, missing or
    non-uniform borders)."""
    if layout.rank not in (1, 2):
        return None
    widths = set(layout.borders)
    if len(widths) != 1:
        return None
    pad = widths.pop()
    if pad < 1:
        return None
    return CommPlan(array_id, layout, pad)


class HaloGeometry:
    """The staging of a halo exchange over a block layout with uniform
    borders ``pad`` deep: one directed :class:`PlanEdge` per neighbour
    adjacency, staged by its axis and indexed in ``links`` by the
    sections it joins, made concrete at a depth by :meth:`strip`.  It is
    bound to no array — a :class:`CommPlan` adds that; the per-sweep
    reference (:func:`repro.spmd.stencil.exchange_halos`) reads its links
    and strips here too.  Which cells a strip moves is
    :func:`repro.arrays.redistribute.transfers`' answer for the edge's
    two sections, grown as the stage says."""

    __slots__ = ("layout", "pad", "depth", "stages", "edges", "links")

    def __init__(self, layout: Any, pad: int) -> None:
        self.layout = layout
        self.pad = pad
        # A depth-k exchange ships k interior cells per side, so the
        # usable depth is clipped by the thinnest local dimension.
        self.depth = min(pad, min(layout.local_dims))
        self.stages = layout.rank
        names = _SIDE_NAMES[layout.rank]
        self.edges: List[PlanEdge] = []
        # (section, stage) -> (edges it sends on, edges it receives on),
        # each in edge order.
        self.links: Dict[tuple, tuple] = {
            (section, stage): ([], [])
            for section in range(layout.num_sections)
            for stage in range(self.stages)
        }
        for axis in range(layout.rank):
            # A section's neighbours along ``axis`` are the sections its
            # block meets once grown one cell along it; section numbers
            # rise with every grid coordinate, so the lower one is the
            # neighbour toward index 0: its strip lands on the low side.
            for src, dest, _, _ in redistribute.transfers(
                redistribute.blocks(layout),
                redistribute.blocks(layout, grow=1, axes=(axis,)),
            ):
                if src != dest:
                    edge = PlanEdge(axis, names[axis][src > dest], src, dest)
                    self.edges.append(edge)
                    self.links[(src, axis)][0].append(edge)
                    self.links[(dest, axis)][1].append(edge)

    def _check_depth(self, k: int) -> None:
        if not 1 <= k <= self.depth:
            raise ValueError(
                f"exchange depth {k} outside [1, {self.depth}] for "
                f"{self.layout.local_dims} sections bordered {self.pad} deep"
            )

    def strip(self, edge: PlanEdge, k: int) -> tuple:
        """``(src_slices, dest_slices)`` of ``edge`` at depth ``k``.

        An edge of stage ``s`` moves the cells where the sender's block,
        grown ``k`` cells along the axes before ``s``, meets the
        receiver's, grown ``k`` along the axes up to ``s``: stage 0 strips
        span interior columns only, and a stage-1 strip spans the full row
        range ``[pad-k, pad+h+k)`` — the stage-0 halo rows included —
        which is what relays corner data without diagonal messages.  The
        blocks are not clipped at the array's edges, so there the relayed
        rows carry the sender's boundary cells."""
        layout, pad, axis = self.layout, self.pad, edge.axis
        [(_, _, src, dest)] = redistribute.transfers(
            redistribute.blocks(layout, pad, k, range(axis),
                                edge.src_section),
            redistribute.blocks(layout, pad, k, range(axis + 1),
                                edge.dest_section),
        )
        return src, dest

    def transfers(self, k: int) -> List[Transfer]:
        """Every edge's :class:`Transfer` at depth ``k``, in edge order:
        the reference a schedule is held to."""
        self._check_depth(k)
        return [Transfer(edge, k, *self.strip(edge, k)) for edge in self.edges]


class CommPlan(HaloGeometry):
    """The compiled halo-exchange schedules of one array: its layout's
    :class:`HaloGeometry` bound to the array whose strips it ships.  It
    holds no epoch and no membership — who owns a section is read when a
    strip is posted — so it stays valid for as long as the array's layout
    is the one it was built from."""

    __slots__ = ("array_id", "_schedules")

    def __init__(self, array_id: Any, layout: Any, pad: int) -> None:
        super().__init__(layout, pad)
        self.array_id = array_id
        # (section, k, sides) -> Schedule, compiled on first use and kept
        # for the life of the plan.  Two copies racing to compile the same
        # entry build equal, immutable schedules, so no lock is needed.
        self._schedules: Dict[tuple, Schedule] = {}

    def schedule(self, section: int, k: int,
                 sides: Optional[frozenset] = None) -> "Schedule":
        """What ``section`` posts and claims in one phase at depth ``k``
        (see :class:`Schedule`): the section's ``links`` stage by stage,
        each send's strip computed once, with every key a strip is parked
        and claimed under already built.  ``sides`` keeps only the strips
        that land on those receiver-relative sides — in the last stage the
        section has: an earlier stage's strips are what the last one
        relays, so they always travel."""
        found = self._schedules.get((section, k, sides))
        if found is None:
            found = self._schedules[(section, k, sides)] = self._compile(
                section, k, sides
            )
        return found

    def _compile(self, section: int, k: int,
                 sides: Optional[frozenset]) -> "Schedule":
        self._check_depth(k)
        aid = self.array_id.as_tuple()
        stages = []
        for stage in range(self.stages):
            sends, receives = self.links[(section, stage)]
            if sends or receives:
                stages.append((stage, tuple(
                    (e.dest_section, e.side, *self.strip(e, k),
                     (aid, section, e.dest_section, e.side, stage))
                    for e in sends
                ), tuple(
                    (e.side, (aid, e.src_section, section, e.side, stage))
                    for e in receives
                )))
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
    copy sent (the perf layer's route re-sends a strip that was dropped or
    refused to the owner read again), claims the inbound strips of that
    stage, and — where the schedule has a further stage — posts the
    orthogonal strips that span the freshly filled halo rows, and claims
    those.  ``sides`` given at ``begin`` is part of the
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
        # (strip, where the route posted it) for every strip not yet
        # secured.
        self._pending: List[tuple] = []
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
        self.registry.perf.coalescer.flush(self.plan.array_id)
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

    def _post_stage(self, index: int) -> None:
        stage, sends, _ = self.schedule.stages[index]
        registry = self.registry
        route = registry.perf
        array_id = self.plan.array_id
        section = self.section
        token = self.token
        epoch = self.record.epoch
        full = self.full
        source = self.source
        # The owners are read once a stage, without the state lock; only
        # a re-send reads its owner again, under it.  A freed array has
        # none, and the route raises for a strip it cannot place.
        state = registry.manager.durability_state(array_id)
        owners = None if state is None else state.processors
        pending = self._pending
        for dest_section, side, src_slices, dest_slices, prefix in sends:
            strip = HaloStrip(
                array_id, section, dest_section, side, stage, token, epoch,
                dest_slices, full[src_slices].copy(), DefVar("halo_ack"),
                (prefix, token),
            )
            dest = route.post(strip, source, owners and owners[dest_section])
            if dest is None:
                registry.inline_strips += 1
            else:
                registry.routed_strips += 1
            registry.strips_sent += 1
            pending.append((strip, dest))

    def _secure_pending(self) -> None:
        registry = self.registry
        for strip, dest in self._pending:
            answer = registry.perf.secure(strip, self.source, dest, registry)
            if answer == "stale":
                raise StalePlanError(
                    f"halo strip {strip!r} fenced as STALE_EPOCH: "
                    "its sender's record predates a membership rewrite"
                )
            if answer != "ok":
                raise TimeoutError(
                    f"halo strip to section {strip.section} of "
                    f"{strip.array_id} unacknowledged after "
                    f"{registry.perf.max_retries + 1} attempts"
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

    Plans are cached per array and checked against the durability
    state's layout on every fetch: a plan reads nothing of the epoch or
    the membership, so recovery, migration, rebalance and rejoin leave it
    in place, and only a border change (``verify_array``) recompiles it.
    """

    def __init__(self, perf: Any) -> None:
        # The perf layer whose route carries the strips.
        self.perf = perf
        self.machine = perf.machine
        self.manager = perf.manager
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

    def halo_plan(self, array_id: Any) -> Optional[CommPlan]:
        """The cached plan of ``array_id``, recompiled when the array's
        layout is no longer the one it was built from."""
        state = self.manager.durability_state(array_id)
        if state is None:
            return None
        layout = state.layout
        key = array_id.as_tuple()
        with self._lock:
            cached = self._plans.get(key)
            if cached is not None:
                if cached.layout == layout:
                    self.hits += 1
                    return cached
                del self._plans[key]
                self.invalidations += 1
        plan = compile_halo_plan(array_id, layout)
        if plan is None:
            return None
        with self._lock:
            # Copies engaging a fresh array compile at once: the first
            # store is every copy's plan, so its schedules are all kept.
            stored = self._plans.get(key)
            if stored is not None and stored.layout == layout:
                return stored
            self._plans[key] = plan
            self.compiled += 1
        return plan

    def engage(self, node: Any, section: Any) -> Optional[tuple]:
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
        plan = self.halo_plan(record.array_id)
        return None if plan is None else (record, plan)

    def drop_array(self, array_id: Any) -> None:
        aid = array_id.as_tuple()
        with self._lock:
            self._plans.pop(aid, None)
            for key in [k for k in self._rendezvous if k[0][0] == aid]:
                del self._rendezvous[key]

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
        """Holder check -> fence -> dedup -> stash one strip arriving at
        ``dest``.

        Never writes section storage: the strip parks in its phase's
        rendezvous variable and the receiving copy's own thread copies it
        into the border cells inside ``HaloExchange.complete()``, so late
        or duplicated deliveries cannot race a kernel mid-sweep.
        """
        manager = self.manager
        record = manager._resolve(
            self.machine.processor(dest), strip.array_id, None,
            section=strip.section,
        )
        if record is None:
            # Not the section's holder (it moved away, or never lived
            # here): refuse without consuming the rendezvous, so the route
            # re-sends to the owner read again.
            self.not_found_strips += 1
            define_once(strip.done, "not_found")
            return
        state = manager.durability_state(strip.array_id)
        if state is not None and (
            strip.epoch < state.epoch or record.epoch < state.epoch
        ):
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
