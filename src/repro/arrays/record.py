"""Internal representation of distributed arrays (§5.1.3-§5.1.4).

Each array-manager process keeps, for every array it knows about, a record
carrying the fields enumerated in §5.1.3: the globally-unique ID (creating
processor number + per-processor counter), element type, global dimensions,
processor numbers, grid dimensions, local dimensions with and without
borders, border sizes, both indexing types, and a reference to local-section
storage.  As in the thesis, derived quantities are computed once at creation
and stored.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Optional

from repro.arrays.layout import ArrayLayout
from repro.arrays.local_section import LocalSection


class ArrayID(tuple):
    """Globally-unique array identifier: a 2-tuple of integers (§4.1.3).

    A ``tuple`` underneath, so the record, queue, durability and plan
    tables it keys hash and compare it in C, with no Python frame per
    lookup.  Not a bare tuple: the manager refuses ``(0, 1)`` where an
    ``ArrayID`` is due, and a message carrying one is priced as one word
    (``nbytes``), as a scalar is."""

    __slots__ = ()
    nbytes = 8

    def __new__(cls, creating_processor: int, serial: int) -> "ArrayID":
        return tuple.__new__(cls, (creating_processor, serial))

    creating_processor = property(itemgetter(0))
    serial = property(itemgetter(1))

    def __getnewargs__(self) -> tuple[int, int]:
        return tuple(self)

    def as_tuple(self) -> tuple[int, int]:
        return tuple(self)

    def __repr__(self) -> str:
        return f"ArrayID({self[0]}, {self[1]})"


class _Serial:
    """Per-processor serial numbers distinguishing arrays (§4.1.3)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._next: dict[int, int] = {}

    def next_for(self, processor: int) -> int:
        with self._lock:
            value = self._next.get(processor, 0)
            self._next[processor] = value + 1
            return value


SERIALS = _Serial()


@dataclass
class ArrayRecord:
    """One array-manager entry (the tuple of §5.1.3).

    A record exists on every processor holding a local section *and* on the
    creating processor (§5.1.4).  ``section`` is None on a creating
    processor that holds no local section.  Freeing the array removes the
    record from the processor's table (the invalidate-on-free of §5.1.3).
    """

    array_id: ArrayID
    type_name: str
    layout: ArrayLayout
    processors: tuple[int, ...]
    section: Optional[LocalSection] = None
    # Durability fields: replication factor and backup-chain map fixed at
    # creation, epoch stamped on replica updates and advanced by
    # checkpoint/restore/recovery.  ``lock`` serialises local writes
    # against the checkpoint consistency cut; it is reentrant because a
    # recovery triggered while it is held (a kill on a checkpoint
    # worker's barrier traffic) must be able to rewrite membership from
    # the same thread.
    replication: int = 0
    replica_map: Optional[Any] = None
    epoch: int = 0
    lock: threading.RLock = field(
        default_factory=threading.RLock, repr=False, compare=False
    )
    # Memoised processor-number -> section-number lookups.  The per-write
    # replica path used to recompute ``processors.index(...)`` on every
    # element write; batch flushes resolve the backup chain once and this
    # cache makes the repeated lookups O(1).  Invalidated whenever
    # recovery rewrites the membership.
    _section_index: dict = field(
        default_factory=dict, repr=False, compare=False
    )

    def section_number_for(self, processor: int) -> int:
        """This processor's section number, memoised against membership."""
        cached = self._section_index.get(processor)
        if (
            cached is not None
            and cached < len(self.processors)
            and self.processors[cached] == processor
        ):
            return cached
        index = self.processors.index(processor)
        self._section_index[processor] = index
        return index

    def invalidate_section_index(self) -> None:
        self._section_index.clear()

    def info(self, which: str):
        """Answer one ``find_info`` selector (§4.2.6)."""
        try:
            return _INFO[which](self)
        except KeyError:
            raise ValueError(f"unknown find_info selector {which!r}") from None


# The find_info dispatch table (§4.2.6): selector -> getter.  ``replication``,
# ``epoch`` and ``layout`` (the whole index geometry in one answer, what a
# ``DistributedArray`` handle is built from) extend the thesis' list.
_INFO = {
    "type": lambda r: r.type_name,
    "dimensions": lambda r: list(r.layout.dims),
    "processors": lambda r: list(r.processors),
    "grid_dimensions": lambda r: list(r.layout.grid),
    "local_dimensions": lambda r: list(r.layout.local_dims),
    "borders": lambda r: list(r.layout.borders),
    "local_dimensions_plus": lambda r: list(r.layout.local_dims_plus),
    "indexing_type": lambda r: r.layout.indexing,
    "grid_indexing_type": lambda r: r.layout.grid_indexing,
    "replication": lambda r: r.replication,
    "epoch": lambda r: r.epoch,
    "layout": lambda r: r.layout,
}
