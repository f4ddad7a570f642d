"""Local sections: flat contiguous storage with borders (§3.2.1.3, §5.1.5).

A local section is "a flat piece of contiguous storage" sized as the product
of the bordered local dimensions.  The thesis implements sections as
*pseudo-definitional arrays*: explicitly malloc'd/free'd storage outside the
PCN heap, usable as a mutable (§5.1.5-§5.1.6).  The analogue here is a flat
NumPy buffer with explicit allocate/free bookkeeping — the allocation
counters let tests assert the no-leak invariant that the thesis' explicit
``free`` primitive exists to provide.

Only the data-parallel program may touch border locations; task-parallel
element access goes through the interior view (§3.2.1.3 last paragraph).
"""

from __future__ import annotations

import threading
from typing import Optional, Sequence

import numpy as np

from repro.arrays.layout import ROW_MAJOR, normalize_indexing

_DTYPES = {"int": np.int64, "double": np.float64, "complex": np.complex128}
_FREED = "use of freed local section"


def dtype_for(type_name: str) -> np.dtype:
    """Map the paper's element types to NumPy dtypes.

    The paper supports "int" and "double" (§4.2.1); "complex" is our
    extension used by the FFT example, where the paper packs complex values
    as pairs of doubles (§6.2) — both representations are provided.
    """
    try:
        return np.dtype(_DTYPES[type_name])
    except KeyError:
        raise ValueError(
            f"element type must be one of {sorted(_DTYPES)}, got {type_name!r}"
        ) from None


class AllocationTracker:
    """Counts explicit allocations/frees (the build/free primitives, §5.1.6)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.allocated = 0
        self.freed = 0
        self.live_bytes = 0

    def on_alloc(self, nbytes: int) -> None:
        with self._lock:
            self.allocated += 1
            self.live_bytes += nbytes

    def on_free(self, nbytes: int) -> None:
        with self._lock:
            self.freed += 1
            self.live_bytes -= nbytes

    @property
    def live(self) -> int:
        with self._lock:
            return self.allocated - self.freed


TRACKER = AllocationTracker()


class LocalSection:
    """One processor's section of a distributed array."""

    def __init__(
        self,
        type_name: str,
        local_dims: Sequence[int],
        borders: Sequence[int],
        indexing_order: str,
    ) -> None:
        if len(borders) != 2 * len(local_dims):
            raise ValueError("borders must have 2*rank entries")
        self.type_name = type_name
        self.local_dims = tuple(local_dims)
        self.borders = tuple(borders)
        # 'C' for row-major, 'F' for column-major storage interpretation;
        # any of §3.2.1.4's spellings is accepted, anything else raises.
        row_major = normalize_indexing(indexing_order) == ROW_MAJOR
        self.order = "C" if row_major else "F"
        self.local_dims_plus = tuple(
            ld + borders[2 * i] + borders[2 * i + 1]
            for i, ld in enumerate(local_dims)
        )
        size = 1
        for d in self.local_dims_plus:
            size *= d
        # The flat contiguous buffer — the pseudo-definitional array.
        self.storage = np.zeros(size, dtype=dtype_for(type_name))
        # Its geometry is fixed from build to free (§3.2.1.3), so both views
        # are made here, once; free() drops them with the buffer, and a
        # view that is None is what "freed" means.
        self._full: Optional[np.ndarray] = self.storage.reshape(
            self.local_dims_plus, order=self.order
        )
        self._interior: Optional[np.ndarray] = self._full[
            tuple(
                slice(self.borders[2 * i], self.borders[2 * i] + ld)
                for i, ld in enumerate(self.local_dims)
            )
        ]
        TRACKER.on_alloc(self.storage.nbytes)

    # -- lifetime --------------------------------------------------------------

    def free(self) -> None:
        """Explicit deallocation (the ``free`` primitive, §5.1.6)."""
        if self._full is not None:
            self._full = self._interior = None
            TRACKER.on_free(self.storage.nbytes)
            self.storage = np.zeros(0, dtype=self.storage.dtype)

    @property
    def is_freed(self) -> bool:
        return self._full is None

    def _check_live(self) -> None:
        if self._full is None:
            raise ValueError(_FREED)

    # -- views -------------------------------------------------------------------

    def full(self) -> np.ndarray:
        """Bordered view, shape ``local_dims_plus`` (DP programs only)."""
        full = self._full
        if full is None:
            raise ValueError(_FREED)
        return full

    def interior(self) -> np.ndarray:
        """Border-free view, shape ``local_dims`` (what the TP layer sees)."""
        interior = self._interior
        if interior is None:
            raise ValueError(_FREED)
        return interior

    def flat(self) -> np.ndarray:
        """The raw flat buffer, as passed to a called DP program (§4.2.5)."""
        self._check_live()
        return self.storage

    # -- element access (used by the array manager, §5.1.1) ----------------------

    def read(self, local_indices: Sequence[int]):
        return self.interior()[tuple(local_indices)]

    def write(self, local_indices: Sequence[int], value) -> None:
        self.interior()[tuple(local_indices)] = value

    # -- border migration (verify_array / copy_local, §5.1.1) ---------------------

    def reallocate_with_borders(
        self, new_borders: Sequence[int]
    ) -> "LocalSection":
        """New section with different borders, interior data copied
        (the expensive reallocate-and-copy of §3.2.1.3)."""
        self._check_live()
        replacement = LocalSection(
            self.type_name,
            self.local_dims,
            new_borders,
            "row" if self.order == "C" else "column",
        )
        replacement.interior()[...] = self.interior()
        return replacement

    def nbytes(self) -> int:
        return int(self.storage.nbytes)

    def __repr__(self) -> str:
        return (
            f"<LocalSection {self.type_name} interior={self.local_dims} "
            f"borders={self.borders} order={self.order!r}"
            f"{' FREED' if self.is_freed else ''}>"
        )
