"""Index arithmetic for distributed arrays (§3.2.1.1, §3.2.1.3-§3.2.1.4).

Every element of a distributed array has

* an N-tuple of **global indices** into the whole array,
* a pair ``(processor-grid-coordinates, local-indices)`` identifying which
  local section holds it and where, and
* a flat offset into the local section's contiguous storage (local sections
  are "flat pieces of contiguous storage", §3.2.1.3), which must account for
  border elements.

The mapping between multi-dimensional and flat indices is row-major
(C-style) or column-major (Fortran-style), chosen per array; the choice
applies to *both* the array and the processor grid (§3.2.1.4, Fig 3.8).

All functions here are pure — they are the property-testing surface for the
bijectivity invariants of the decomposition.  (A layout keeps the region
decompositions it has worked out; that changes what an ask costs, not what
it answers.)
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from repro.arrays.redistribute import blocks, dense, transfers

ROW_MAJOR = "row"
COLUMN_MAJOR = "column"

# How many region decompositions one layout keeps: the last regions asked.
KEPT_REGIONS = 64

_INDEXING_ALIASES = {
    "row": ROW_MAJOR,
    "C": ROW_MAJOR,
    "c": ROW_MAJOR,
    "column": COLUMN_MAJOR,
    "Fortran": COLUMN_MAJOR,
    "fortran": COLUMN_MAJOR,
}


def normalize_indexing(indexing: str) -> str:
    """Map the paper's accepted spellings ("row"/"C", "column"/"Fortran")."""
    try:
        return _INDEXING_ALIASES[indexing]
    except KeyError:
        raise ValueError(
            f"indexing type must be one of {sorted(set(_INDEXING_ALIASES))}, "
            f"got {indexing!r}"
        ) from None


def flatten_index(
    indices: Sequence[int], dims: Sequence[int], indexing: str
) -> int:
    """Multi-dimensional -> flat index under the given ordering."""
    if len(indices) != len(dims):
        raise ValueError(f"rank mismatch: {indices} vs dims {dims}")
    order = range(len(dims)) if indexing == ROW_MAJOR else range(len(dims) - 1, -1, -1)
    flat = 0
    for axis in order:
        flat = flat * dims[axis] + indices[axis]
    return flat


def unflatten_index(
    flat: int, dims: Sequence[int], indexing: str
) -> tuple[int, ...]:
    """Flat -> multi-dimensional index under the given ordering."""
    indices = [0] * len(dims)
    order = (
        range(len(dims) - 1, -1, -1)
        if indexing == ROW_MAJOR
        else range(len(dims))
    )
    for axis in order:
        indices[axis] = flat % dims[axis]
        flat //= dims[axis]
    return tuple(indices)


@dataclass(frozen=True)
class ArrayLayout:
    """The complete index geometry of one distributed array.

    ``borders`` has length ``2*rank``: elements ``2i`` and ``2i+1`` are the
    border sizes before and after dimension ``i`` (§4.2.1).
    """

    dims: tuple[int, ...]
    grid: tuple[int, ...]
    borders: tuple[int, ...]
    indexing: str  # array + local-section ordering
    grid_indexing: str  # processor-grid ordering (same value per §3.2.1.4)

    def __post_init__(self) -> None:
        if len(self.grid) != len(self.dims):
            raise ValueError("grid rank must equal array rank")
        if len(self.borders) != 2 * len(self.dims):
            raise ValueError("borders must have 2*rank entries")
        for d, g in zip(self.dims, self.grid):
            if d % g != 0:
                raise ValueError(f"grid dim {g} does not divide array dim {d}")
        # region -> its decomposition (region_sections).  Read without the
        # lock: one dict.get is atomic, and only inserts and evictions,
        # which hold it, iterate or change the table.
        object.__setattr__(self, "_regions", {})
        object.__setattr__(self, "_regions_lock", threading.Lock())

    # -- derived geometry ----------------------------------------------------

    # Derived tuples are cached: the fields are frozen, so the geometry
    # never changes, and ``locate`` sits on the per-element hot path.

    @cached_property
    def rank(self) -> int:
        return len(self.dims)

    @cached_property
    def local_dims(self) -> tuple[int, ...]:
        """Interior (border-free) local-section dimensions."""
        return tuple(d // g for d, g in zip(self.dims, self.grid))

    @cached_property
    def _grid_strides(self) -> tuple[int, ...]:
        """Per grid axis, what one step along it adds to a section number:
        :meth:`section_index` is ``sum(c * s)`` over these."""
        strides = [0] * self.rank
        stride = 1
        axes = range(self.rank)
        for axis in reversed(axes) if self.grid_indexing == ROW_MAJOR else axes:
            strides[axis] = stride
            stride *= self.grid[axis]
        return tuple(strides)

    @property
    def local_dims_plus(self) -> tuple[int, ...]:
        """Local-section dimensions including borders."""
        return tuple(
            ld + self.borders[2 * i] + self.borders[2 * i + 1]
            for i, ld in enumerate(self.local_dims)
        )

    @property
    def num_sections(self) -> int:
        n = 1
        for g in self.grid:
            n *= g
        return n

    @property
    def global_size(self) -> int:
        n = 1
        for d in self.dims:
            n *= d
        return n

    def local_size(self) -> int:
        n = 1
        for d in self.local_dims:
            n *= d
        return n

    def local_size_plus(self) -> int:
        n = 1
        for d in self.local_dims_plus:
            n *= d
        return n

    # -- global <-> (section, local) -------------------------------------------

    def owner_coords(self, indices: Sequence[int]) -> tuple[int, ...]:
        """Processor-grid coordinates of the section holding ``indices``."""
        local = self.local_dims
        return tuple(idx // ld for idx, ld in zip(indices, local))

    def local_indices(self, indices: Sequence[int]) -> tuple[int, ...]:
        """Indices within the owning local section (border-free)."""
        local = self.local_dims
        return tuple(idx % ld for idx, ld in zip(indices, local))

    def section_index(self, coords: Sequence[int]) -> int:
        """Grid coordinates -> position in the 1-D processors array.

        The mapping uses the array's grid-indexing order (Fig 3.8: the same
        element lands on different processors under row- vs column-major).
        """
        return flatten_index(coords, self.grid, self.grid_indexing)

    def section_coords(self, section: int) -> tuple[int, ...]:
        return unflatten_index(section, self.grid, self.grid_indexing)

    def locate(self, indices: Sequence[int]) -> tuple[int, tuple[int, ...]]:
        """Global indices -> (section number, local indices).

        Single fused pass over the dimensions (validate + owner + local):
        this runs once per element operation, so it builds no grid
        coordinates — each one adds its grid stride to the section number
        as it is found, the flattening :meth:`section_index` does.
        """
        dims = self.dims
        if len(indices) != len(dims):
            raise ValueError(
                f"index rank {len(indices)} != array rank {len(dims)}"
            )
        local_dims = self.local_dims
        strides = self._grid_strides
        section = 0
        local = [0] * len(dims)
        for i, idx in enumerate(indices):
            if not 0 <= idx < dims[i]:
                raise IndexError(
                    f"index {idx} out of range [0, {dims[i]}) in dimension {i}"
                )
            ld = local_dims[i]
            section += idx // ld * strides[i]
            local[i] = idx % ld
        return section, tuple(local)

    def global_indices(
        self, section: int, local: Sequence[int]
    ) -> tuple[int, ...]:
        """(section number, local indices) -> global indices (inverse of
        :meth:`locate`)."""
        coords = self.section_coords(section)
        return tuple(
            c * ld + li for c, ld, li in zip(coords, self.local_dims, local)
        )

    # -- regions ---------------------------------------------------------------

    def validate_region(self, region: Sequence[Sequence[int]]) -> None:
        """Check a rectangular region: one half-open ``(start, stop)`` pair
        per dimension, non-empty and within the array bounds."""
        if len(region) != self.rank:
            raise ValueError(
                f"region rank {len(region)} != array rank {self.rank}"
            )
        for i, ((start, stop), dim) in enumerate(zip(region, self.dims)):
            if not 0 <= start < stop <= dim:
                raise IndexError(
                    f"region ({start}, {stop}) invalid for dimension {i} "
                    f"of size {dim}"
                )

    def region_shape(
        self, region: Sequence[Sequence[int]]
    ) -> tuple[int, ...]:
        return tuple(stop - start for start, stop in region)

    def region_sections(
        self, region: tuple[tuple[int, int], ...]
    ) -> tuple[tuple[int, tuple[slice, ...], tuple[slice, ...]], ...]:
        """Decompose a rectangular region over the owning local sections.

        One ``(section, local_slices, region_slices)`` triple per local
        section the region intersects: ``local_slices`` select the
        intersection inside that section's interior, ``region_slices``
        select where it lands in a dense array of :meth:`region_shape`.
        This is the geometry behind region-granular RPC — one message per
        section instead of one per element — and it is
        :func:`~repro.arrays.redistribute.transfers` from the sections
        to the region's dense box.

        ``region`` is a tuple of ``(start, stop)`` pairs: the layout is
        frozen, so the first ask validates and decomposes it and later
        asks return the tuple kept then (the last :data:`KEPT_REGIONS`
        regions).  An invalid region raises on every ask and is never
        kept.
        """
        kept = self._regions.get(region)
        if kept is not None:
            return kept
        self.validate_region(region)
        parts = tuple(
            (section, local, out)
            for section, _, local, out in transfers(blocks(self), dense(region))
        )
        with self._regions_lock:
            table = self._regions
            if len(table) >= KEPT_REGIONS:
                # Evict the oldest: insertion order is arrival order.
                del table[next(iter(table))]
            return table.setdefault(region, parts)

    # -- replica placement -------------------------------------------------------

    def replica_chains(
        self, processors: Sequence[int], replication: int
    ) -> list[tuple[int, ...]]:
        """Deterministic backup chain for every section.

        Section ``s`` (owned by ``processors[s]``) is mirrored on the next
        ``replication`` processors after it in the array's own processor
        ring — a pure function of ``(processors, replication)``, so any
        node can recompute the placement without communication.  Requires
        ``0 <= replication < len(processors)`` (a section cannot back up
        onto its own owner).
        """
        procs = tuple(int(p) for p in processors)
        if len(procs) != self.num_sections:
            raise ValueError(
                f"{len(procs)} processors for {self.num_sections} sections"
            )
        if not 0 <= replication < len(procs):
            raise ValueError(
                f"replication {replication} outside [0, {len(procs) - 1}] "
                f"for {len(procs)} processors"
            )
        n = len(procs)
        return [
            tuple(procs[(s + j) % n] for j in range(1, replication + 1))
            for s in range(self.num_sections)
        ]

    # -- local indices -> storage offset ----------------------------------------

    def storage_offset(self, local: Sequence[int]) -> int:
        """Border-free local indices -> flat offset into the stored section.

        Storage includes borders: the interior element ``local`` lives at
        ``local[i] + leading_border[i]`` in each dimension.
        """
        shifted = tuple(
            li + self.borders[2 * i] for i, li in enumerate(local)
        )
        return flatten_index(shifted, self.local_dims_plus, self.indexing)

    def replace_borders(self, borders: Sequence[int]) -> "ArrayLayout":
        """A copy of this layout with different border sizes (verify_array)."""
        return ArrayLayout(
            dims=self.dims,
            grid=self.grid,
            borders=tuple(borders),
            indexing=self.indexing,
            grid_indexing=self.grid_indexing,
        )
