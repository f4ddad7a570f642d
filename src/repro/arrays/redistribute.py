"""Which cells of one distribution meet another (§3.2.1.1-§3.2.1.3).

A data-parallel operation's traffic is the intersection of the
distribution its data is in with the distribution it needs it in: a
region request meets the array's sections with the caller's dense box, a
snapshot meets them with the whole array, a halo strip meets one
section's interior with a neighbour's border.  :func:`transfers` is that
intersection, and this module is the one place that works it out.

A :class:`Distribution` is a grid of pieces.  Per dimension it holds one
interval ``(coordinate, start, stop, origin)`` per grid coordinate: the
piece covers global indices ``[start, stop)`` along that dimension, and
``origin`` is the global index of its storage element 0 — a border is
only an origin below ``start``.  Its ``key`` names the piece at a tuple
of grid coordinates (a section number, or a caller's constant).  Along
every dimension both the starts and the stops of the intervals rise with
the coordinate, which is what lets :func:`transfers` work one dimension
at a time: two pieces meet exactly when their intervals meet along every
dimension, so the overlaps are the product of the per-dimension ones and
the cost follows what is returned, never sections x sections.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from typing import Any, Callable, Iterable, Optional, Sequence


class Distribution:
    """A grid of pieces: ``axes[d]`` holds one ``(coordinate, start,
    stop, origin)`` interval per grid coordinate of dimension ``d``, and
    ``key(coords)`` names the piece at those grid coordinates."""

    __slots__ = ("axes", "key")

    def __init__(self, axes: tuple, key: Callable[[tuple], Any]) -> None:
        self.axes = axes
        self.key = key


def blocks(layout: Any, pad: int = 0, grow: int = 0,
           axes: Iterable[int] = (), section: Optional[int] = None
           ) -> Distribution:
    """The sections of a block ``layout``, keyed by section number
    (``layout.section_index``).

    Each section's interior is grown ``grow`` cells along ``axes`` (not
    clipped at the array's edges) and is stored ``pad`` cells deep, so
    its slices index a section whose storage carries ``pad``-deep
    borders.  With ``section`` given, only that one section."""
    grown = set(axes)
    coords = None if section is None else layout.section_coords(section)
    per_axis = []
    for axis, (ld, g) in enumerate(zip(layout.local_dims, layout.grid)):
        extra = grow if axis in grown else 0
        span = range(g) if coords is None else (coords[axis],)
        per_axis.append(tuple(
            (c, c * ld - extra, (c + 1) * ld + extra, c * ld - pad)
            for c in span
        ))
    return Distribution(tuple(per_axis), layout.section_index)


def dense(box: Sequence[Sequence[int]], key: Any = None) -> Distribution:
    """One dense piece covering ``box``, one ``(start, stop)`` pair per
    dimension, stored from its first cell: a caller's region, a snapshot
    or a whole array.  ``key`` names it."""
    return Distribution(
        tuple(((0, start, stop, start),) for start, stop in box),
        lambda coords: key,
    )


def _meet(src: tuple, dst: tuple) -> list:
    """The overlaps of two interval lists along one dimension, as
    ``(src coordinate, dst coordinate, src slice, dst slice)``, in
    destination then source order.  Both lists rise in start and stop, so
    the source intervals meeting one destination interval are a run of
    consecutive ones, found by bisection."""
    starts = [start for _, start, _, _ in src]
    stops = [stop for _, _, stop, _ in src]
    out = []
    for dc, dlo, dhi, dorg in dst:
        for sc, slo, shi, sorg in src[bisect_right(stops, dlo):
                                      bisect_left(starts, dhi)]:
            lo, hi = max(slo, dlo), min(shi, dhi)
            out.append((sc, dc, slice(lo - sorg, hi - sorg),
                        slice(lo - dorg, hi - dorg)))
    return out


def transfers(src: Distribution, dst: Distribution) -> list:
    """Every non-empty overlap of a piece of ``src`` with a piece of
    ``dst``: ``(src key, dst key, src slices, dst slices)``, the slices
    selecting the shared cells in each piece's storage.

    Grid order: the first dimension varies slowest, and along each one
    the coordinates rise — for a region, the order of the sections it
    spans."""
    per_axis = [_meet(s, d) for s, d in zip(src.axes, dst.axes)]
    out = []
    for combo in itertools.product(*per_axis):
        src_coords, dst_coords, src_slices, dst_slices = zip(*combo)
        out.append((src.key(src_coords), dst.key(dst_coords), src_slices,
                    dst_slices))
    return out
