"""Border-exchange stencil kernels (overlap areas, §3.2.1.3).

The thesis supports Fortran-D-style *borders* around local sections "to be
used internally by the data-parallel program ... as communication buffers"
(§3.2.1.3).  This module is the data-parallel program family that actually
uses them: 5-point Jacobi relaxation on a 2-D domain, with each sweep
exchanging edge data into the neighbours' border cells.

These kernels power the FIG-2.1 climate experiment (ocean/atmosphere
subdomains are each a bordered distributed array relaxed by these programs)
and the ABL-1 decomposition-shape ablation (halo traffic of ``(block,
block)`` vs ``(block, "*")`` grids, measured against
:func:`repro.spmd.costs.halo_phase`).

Distribution contract: the array is 2-D, distributed over a ``gr x gc``
processor grid with row-major grid indexing (copy ``index`` sits at grid
coordinates ``divmod(index, gc)``), with borders of at least 1 in every
direction.  Domain edges are Dirichlet: border cells on the physical
boundary hold fixed values the kernel never overwrites.
"""

from __future__ import annotations

import functools
import weakref
from typing import Optional, Union

import numpy as np

from repro.arrays.layout import ROW_MAJOR, ArrayLayout
from repro.arrays.local_section import LocalSection
from repro.perf import get_perf_layer
from repro.perf.commplan import HaloGeometry
from repro.spmd import collectives
from repro.spmd.context import OutCell, SPMDContext


def frame_view(section: Union[LocalSection, np.ndarray]) -> np.ndarray:
    """The interior plus a one-cell frame, as a view: what the per-sweep
    path exchanges into and sweeps over.  On a section with uniform
    borders ``d`` deep that is the innermost ring of the border; a raw
    ndarray is taken to carry exactly its frame.  Handing a kernel this
    view of a managed section is how the per-sweep reference is reached
    on it."""
    if not isinstance(section, LocalSection):
        return np.asarray(section)
    d = min(section.borders)
    if d < 1:
        raise ValueError(
            "stencil kernels need borders >= 1 in every direction "
            f"(got {section.borders}); create the array with "
            "Border_info of at least [1,1,1,1] or foreign_borders"
        )
    if max(section.borders) != d:
        raise ValueError(
            "stencil kernels need the same border depth in every "
            f"direction (got {section.borders})"
        )
    full = section.full()
    return full[tuple(slice(d - 1, n - d + 1) for n in full.shape)]


def grid_coords(index: int, grid_cols: int) -> tuple[int, int]:
    """Copy index -> (row, col) on the row-major processor grid."""
    return divmod(index, grid_cols)


def border_query(parm_num: int, rank: int) -> tuple[int, ...]:
    """``foreign_borders`` protocol (§5.1.7): every array parameter of the
    stencil programs needs a border at least 1 deep on each side, and
    asks for exactly that."""
    return (1,) * (2 * rank)


@functools.lru_cache(maxsize=256)
def _frame_stages(
    grid_rows: int, grid_cols: int, h: int, w: int, index: int
) -> tuple:
    """``(sends, receives)`` of copy ``index`` for each stage of a depth-1
    exchange between ``(h, w)`` blocks framed one cell deep on a
    row-major ``grid_rows x grid_cols`` grid (the distribution contract
    above, as a layout).  Kept, because a reference that recompiled its
    geometry every sweep would be timed for that."""
    geometry = HaloGeometry(
        ArrayLayout(
            dims=(grid_rows * h, grid_cols * w), grid=(grid_rows, grid_cols),
            borders=(1, 1, 1, 1), indexing=ROW_MAJOR, grid_indexing=ROW_MAJOR,
        ),
        1,
    )
    return tuple(
        (geometry.transfers(1, index, "send", stage),
         geometry.transfers(1, index, "recv", stage))
        for stage in range(geometry.stages)
    )


def exchange_halos(
    ctx: SPMDContext,
    full: np.ndarray,
    grid_rows: int,
    grid_cols: int,
) -> None:
    """Swap 1-deep edge strips with the four grid neighbours: the
    per-sweep reference the planned path is compared against.

    Which cells leave and which they land on is
    :class:`~repro.perf.commplan.HaloGeometry`'s answer for the frame's
    layout at depth 1, stage by stage (row strips, then the column
    strips that span them); what is this function's own is the check of
    the grid against the call and ``ctx.comm`` as the transport.  What
    it routes is :func:`repro.spmd.costs.halo_phase` at ``header=0``.
    Communication is deadlock-free because sends never block: in each
    stage every copy posts its sends, then receives selectively by tag
    and source.
    """
    expected = grid_rows * grid_cols
    if expected != len(ctx.procs):
        raise ValueError(
            f"exchange_halos: processor grid {grid_rows}x{grid_cols} "
            f"implies {expected} copies, but this distributed call has "
            f"{len(ctx.procs)} (section shape "
            f"{getattr(full, 'shape', None)}); the grid arguments must "
            "match the array layout's owner count"
        )
    for sends, receives in _frame_stages(
        grid_rows, grid_cols, full.shape[0] - 2, full.shape[1] - 2, ctx.index
    ):
        for t in sends:
            # Tag by the side the *receiver* will see it on.
            ctx.comm.send(
                t.edge.dest_section, full[t.src_slices].copy(),
                tag=("halo", t.edge.side),
            )
        for t in receives:
            full[t.dest_slices] = ctx.comm.recv(
                source_rank=t.edge.src_section, tag=("halo", t.edge.side)
            )


def jacobi_sweep(full: np.ndarray) -> np.ndarray:
    """One 5-point Jacobi relaxation over the interior; returns the new
    interior (does not write it back)."""
    return 0.25 * (
        full[:-2, 1:-1] + full[2:, 1:-1] + full[1:-1, :-2] + full[1:-1, 2:]
    )


class _SweepRegion:
    """One region ``full[r0:r1, c0:c1]`` of a planned sweep, made once: the
    four neighbour views its stencil reads (the +-1 frame around it), its
    own cells, and the buffer its update is computed into.

    :meth:`sweep` is :func:`jacobi_sweep`'s arithmetic in its operand
    order — ``0.25 * (((north + south) + west) + east)`` — so the planned
    path's frame computations are bit-identical to a neighbour's interior
    update of the same cells; only the temporaries are gone.  The buffer
    is shared by whoever sweeps this region: two calls sweeping one
    section at once already race on its storage (§3.1.1.4), so it adds no
    hazard of its own."""

    __slots__ = ("bounds", "north", "south", "west", "east", "own", "out")

    def __init__(
        self, full: np.ndarray, r0: int, r1: int, c0: int, c1: int
    ) -> None:
        self.bounds = (r0, r1, c0, c1)
        self.north = full[r0 - 1:r1 - 1, c0:c1]
        self.south = full[r0 + 1:r1 + 1, c0:c1]
        self.west = full[r0:r1, c0 - 1:c1 - 1]
        self.east = full[r0:r1, c0 + 1:c1 + 1]
        self.own = full[r0:r1, c0:c1]
        self.out = np.empty(
            self.own.shape, dtype=np.result_type(full.dtype, 0.25)
        )

    def sweep(self) -> np.ndarray:
        """The region's updated values, from the current ones (not yet
        written back: :meth:`store` does that)."""
        out = self.out
        np.add(self.north, self.south, out=out)
        np.add(out, self.west, out=out)
        np.add(out, self.east, out=out)
        np.multiply(0.25, out, out=out)
        return out

    def store(self) -> None:
        self.own[...] = self.out

    def change(self, d: int, h: int, w: int) -> float:
        """max |new - old| over the region's cells that are interior to an
        ``(h, w)`` section bordered ``d`` deep."""
        r0, r1, c0, c1 = self.bounds
        rows = slice(max(r0, d) - r0, min(r1, d + h) - r0)
        cols = slice(max(c0, d) - c0, min(c1, d + w) - c0)
        if rows.start >= rows.stop or cols.start >= cols.stop:
            return 0.0
        return float(np.max(np.abs(
            self.out[rows, cols] - self.own[rows, cols]
        )))


def _extended(d: int, h: int, w: int, e: int, sides) -> tuple:
    """The local region ``(r0, r1, c0, c1)`` of the full view, reached
    ``e`` cells toward every side in ``sides`` (the sides with a
    neighbour) and never past a physical edge."""
    return (
        d - (e if "north" in sides else 0),
        d + h + (e if "south" in sides else 0),
        d - (e if "west" in sides else 0),
        d + w + (e if "east" in sides else 0),
    )


def _sweep0_split(
    d: int, h: int, w: int, e: int, sides
) -> tuple[Optional[tuple], list]:
    """Split a phase's first sweep around the cells the phase receives.

    ``sides`` are the sides the section receives strips on and ``e`` is
    how far sweep 0 reaches toward each of them.  Returns ``(inner,
    frame)``, regions ``(r0, r1, c0, c1)`` of the full view that tile
    ``_extended(d, h, w, e, sides)``: ``inner`` is every cell of it whose
    stencil reads no received cell — it stops one cell short of the
    interior's edge on a side that receives and reaches the region's own
    edge on a side that does not — and ``frame`` is the rest, one band
    per receiving side.  A section too thin to have such a cell gets
    ``inner`` None and the whole region as its frame.
    """
    r0, r1, c0, c1 = region = _extended(d, h, w, e, sides)
    ir0 = d + 1 if "north" in sides else r0
    ir1 = d + h - 1 if "south" in sides else r1
    ic0 = d + 1 if "west" in sides else c0
    ic1 = d + w - 1 if "east" in sides else c1
    if ir0 >= ir1 or ic0 >= ic1:
        return None, [region]
    frame = [
        band
        for band in (
            (r0, ir0, c0, c1), (ir1, r1, c0, c1),
            (ir0, ir1, c0, ic0), (ir0, ir1, ic1, c1),
        )
        if band[0] < band[1] and band[2] < band[3]
    ]
    return (ir0, ir1, ic0, ic1), frame


# LocalSection -> {(k, sides): its phase's sweep regions}, made the first
# time a planned phase of that depth runs on the section.  The section's
# geometry is fixed from allocation to free, so the regions are too; the
# key is weak, so they go with their section and no view outlives it.
_PHASE_REGIONS: "weakref.WeakKeyDictionary[LocalSection, dict]" = (
    weakref.WeakKeyDictionary()
)


def _phase_regions(
    full: np.ndarray, d: int, h: int, w: int, k: int, sides
) -> tuple:
    """``(first, early, later)`` for a depth-``k`` phase: sweep 0's regions
    — the inner block when there is one, then the frame bands — of which
    the first ``early`` (1 or 0) read nothing the phase receives, and one
    region for each later sweep ``j``, the local region extended
    ``k-1-j`` cells toward every side in ``sides``."""
    inner, frame = _sweep0_split(d, h, w, k - 1, sides)
    first = frame if inner is None else [inner] + frame
    return (
        tuple(_SweepRegion(full, *region) for region in first),
        int(inner is not None),
        tuple(
            _SweepRegion(full, *_extended(d, h, w, k - 1 - j, sides))
            for j in range(1, k)
        ),
    )


def _heat_steps_planned(
    ctx: SPMDContext,
    record,
    plan,
    registry,
    section: LocalSection,
    n_steps: int,
    want_delta: bool,
) -> float:
    """Jacobi relaxation on the planned path: deep-halo phases.

    Each phase exchanges once at depth ``k = min(plan.depth, remaining)``
    and then runs ``k`` sweeps; sweep ``j`` updates the local region
    extended by ``k-1-j`` cells toward every neighbour (never past a
    physical edge).  The extension cells redundantly recompute what the
    neighbour computes for its own interior — same arithmetic, same
    values — so the result is bit-identical to exchanging every sweep.
    Sweep 0 is split (:func:`_sweep0_split`): the cells that read nothing
    the phase receives are computed between ``prefetch()`` and
    ``complete()``, while the strips are in flight, the bands along the
    receiving sides after it.  Every region is a :class:`_SweepRegion`
    kept with ``section`` (:data:`_PHASE_REGIONS`).  Returns the max
    |change| of the last sweep over the interior when ``want_delta``,
    else 0.
    """
    d = plan.pad
    h, w = record.layout.local_dims
    full = section.full()
    number = record.section_number_for(ctx.processor_number)
    # Where this copy has a neighbour is where the plan has it receive.
    sides = plan.schedule(number, 1).sides
    phases = _PHASE_REGIONS.get(section)
    if phases is None:
        phases = _PHASE_REGIONS.setdefault(section, {})
    delta = 0.0
    done_steps = 0
    phase = 0
    while done_steps < n_steps:
        k = min(plan.depth, n_steps - done_steps)
        regions = phases.get((k, sides))
        if regions is None:
            regions = phases[(k, sides)] = _phase_regions(
                full, d, h, w, k, sides
            )
        first, early, later = regions
        exchange = plan.begin(
            registry, record, full, number, k,
            (ctx.group, phase), ctx.processor_number,
        )
        exchange.prefetch()
        for region in first[:early]:
            region.sweep()
        exchange.complete()
        for region in first[early:]:
            region.sweep()
        pieces = first
        for j in range(k):
            if j:
                pieces = later[j - 1:j]
                pieces[0].sweep()
            if want_delta and done_steps + j == n_steps - 1:
                delta = max(piece.change(d, h, w) for piece in pieces)
            # Every piece was computed from the old values; only now may
            # they be overwritten.
            for piece in pieces:
                piece.store()
        done_steps += k
        phase += 1
    return delta


def heat_steps(
    ctx: SPMDContext,
    grid_rows,
    grid_cols,
    steps,
    section: Union[LocalSection, np.ndarray],
    delta_out: Optional[Union[OutCell, np.ndarray]] = None,
) -> None:
    """Run ``steps`` Jacobi sweeps of the heat equation on a bordered
    distributed array.

    Precondition: section has borders >= 1; domain-edge border cells hold
    the Dirichlet boundary values.  Postcondition: the interior holds the
    relaxed field; ``delta_out`` (if given) the global max |change| of the
    final sweep — the convergence measure.

    What ``section`` is selects the path.  The local section of a
    managed distributed array runs *planned*
    (:meth:`~repro.perf.commplan.PlanRegistry.engage`): precompiled
    ``halo_bulk`` transfers (one fused message per neighbour per phase),
    interior compute overlapped with in-flight halo traffic, and — with
    borders deeper than 1 — one exchange amortised over that many sweeps
    (:mod:`repro.perf.commplan`); grid arguments that are not the
    array's grid are an error.  A bare ndarray frame, or a section no
    record holds, runs the per-sweep reference: ``exchange_halos`` every
    sweep, into the innermost ring of whatever uniform border the
    section has.  The two are bit-identical in results;
    :func:`frame_view` of a managed section reaches the reference on it.
    """
    gr = int(grid_rows[0]) if hasattr(grid_rows, "__getitem__") else int(grid_rows)
    gc = int(grid_cols[0]) if hasattr(grid_cols, "__getitem__") else int(grid_cols)
    n_steps = int(steps[0]) if hasattr(steps, "__getitem__") else int(steps)
    want_delta = delta_out is not None
    perf = get_perf_layer(ctx.machine)
    engaged = perf and perf.plans.engage(ctx.node, section, "stencil5")
    if engaged:
        record, plan = engaged
        if tuple(record.layout.grid) != (gr, gc):
            raise ValueError(
                f"heat_steps: processor grid {gr}x{gc} is not the "
                f"{record.layout.grid} grid {record.array_id} is "
                "distributed over"
            )
        delta = _heat_steps_planned(
            ctx, record, plan, perf.plans, section, n_steps, want_delta,
        )
    else:
        full = frame_view(section)
        delta = 0.0
        for step in range(n_steps):
            exchange_halos(ctx, full, gr, gc)
            new_interior = jacobi_sweep(full)
            if want_delta and step == n_steps - 1:
                delta = float(np.max(np.abs(new_interior - full[1:-1, 1:-1])))
            full[1:-1, 1:-1] = new_interior
    if want_delta:
        # Every copy of a call has the same parameter list, so all of
        # them reduce or none does.
        delta = collectives.allreduce(ctx.comm, delta, op="max")
        if isinstance(delta_out, OutCell):
            delta_out.set(delta)
        else:
            delta_out[0] = delta
