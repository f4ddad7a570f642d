"""Pythonic handle for distributed arrays.

Wraps an :class:`~repro.arrays.record.ArrayID` with the §3.2.1.5 operation
set — element read/write by global indices, info queries, border
verification, deletion — raising typed exceptions instead of returning
Status values, plus NumPy gather/scatter conveniences built on bulk section
transfer.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

import numpy as np

from repro.arrays import am_user
from repro.arrays.layout import ArrayLayout
from repro.arrays.manager import get_array_manager
from repro.arrays.record import ArrayID
from repro.status import ArrayNotFoundError, Status, check_status
from repro.vp.machine import Machine


class DistributedArray:
    """A distributed array viewed as a global construct (§3.1.3)."""

    def __init__(
        self,
        machine: Machine,
        array_id: ArrayID,
        layout: ArrayLayout,
        processors: tuple[int, ...],
        type_name: str,
        replication: int = 0,
    ) -> None:
        self.machine = machine
        self.array_id = array_id
        self.layout = layout
        self._created_on = processors
        self.type_name = type_name
        self.replication = replication
        self._freed = False

    @property
    def processors(self) -> tuple[int, ...]:
        """The array's current owners, section by section: its membership
        in the durability state, which migration, rebalance and recovery
        rewrite — the processors given at creation for a freed or foreign
        array."""
        state = get_array_manager(self.machine).durability_state(
            self.array_id
        )
        return self._created_on if state is None else tuple(state.processors)

    @property
    def _home(self) -> int:
        """The processor global operations are issued on: the creating
        processor — the one node that holds a record of the array whatever
        its distribution (§5.1.4), which processor 0 need not — and once
        that has failed, the first live owner of the current membership."""
        machine = self.machine
        creator = self.array_id.creating_processor
        if creator not in machine._failed:
            return creator
        return next(
            (p for p in self.processors if not machine.is_failed(p)), creator
        )

    # -- creation ------------------------------------------------------------------

    @classmethod
    def create(
        cls,
        machine: Machine,
        type_name: str,
        dims: Sequence[int],
        processors: Sequence[int],
        distrib: Sequence,
        borders: Any = None,
        indexing: str = "row",
        on_processor: int = 0,
        replication: int = 0,
    ) -> "DistributedArray":
        """Create a distributed array, raising on failure.

        ``replication=k`` keeps ``k`` backup mirrors of every section (see
        ``docs/fault_model.md``, Durable arrays).
        """
        array_id, status = am_user.create_array(
            machine,
            type_name,
            dims,
            processors,
            distrib,
            border_info=borders,
            indexing_type=indexing,
            processor=on_processor,
            replication=replication,
        )
        check_status(
            status,
            f"create_array({type_name}, dims={tuple(dims)}, "
            f"distrib={tuple(distrib)}) failed: {status.name}",
        )
        # The record this creation left on ``on_processor`` (§5.1.4) is
        # the one place certain to know the array, and its layout is the
        # validated geometry: ask there, once.
        layout, st = am_user.find_info(
            machine, array_id, "layout", processor=on_processor
        )
        check_status(st)
        return cls(
            machine,
            array_id,
            layout,
            tuple(int(p) for p in processors),
            type_name,
            replication=replication,
        )

    # -- element access ---------------------------------------------------------------

    def _check_live(self) -> None:
        if self._freed:
            raise ArrayNotFoundError(f"array {self.array_id} has been freed")

    def _checked(
        self, call: Any, what: str, *arguments: Any, **keywords: Any
    ) -> Any:
        """One library procedure on the live array: ``call`` is the
        ``am_user`` procedure — looked up by the caller as it calls, so a
        tracer's replacement is the one that runs — given the machine, the
        array ID and ``arguments``.  Its status is checked; ``what`` names
        the operation in the error raised, a format of ``arguments`` that
        is filled in only then.  Its out value is returned, None when it
        has none."""
        if self._freed:
            self._check_live()  # raises; the flag is tested inline
        result = call(self.machine, self.array_id, *arguments, **keywords)
        value, status = result if type(result) is tuple else (None, result)
        if status is not Status.OK:
            check_status(status, what.format(*arguments) + " failed")
        return value

    # The element operations test the creator against the failed set
    # inline, as ``_home`` does, and ask ``_home`` only once it has failed.

    def __getitem__(self, indices) -> Any:
        if not isinstance(indices, tuple):
            indices = (indices,)
        home = self.array_id.creating_processor
        return self._checked(
            am_user.read_element, "read_element{0}", indices,
            processor=home if home not in self.machine._failed else self._home,
        )

    def __setitem__(self, indices, value) -> None:
        if not isinstance(indices, tuple):
            indices = (indices,)
        home = self.array_id.creating_processor
        self._checked(
            am_user.write_element, "write_element{0}", indices, value,
            processor=home if home not in self.machine._failed else self._home,
        )

    # -- region access ----------------------------------------------------------------

    def read_region(self, region: Sequence[Sequence[int]]) -> np.ndarray:
        """Dense copy of a rectangular region (one half-open ``(start,
        stop)`` pair per dimension) — one message per owning processor."""
        return self._checked(
            am_user.read_region, "read_region{0}", region,
            processor=self._home,
        )

    def write_region(
        self, region: Sequence[Sequence[int]], values: Any
    ) -> None:
        """Overwrite a rectangular region from a dense array of its shape."""
        self._checked(
            am_user.write_region, "write_region{0}", region, values,
            processor=self._home,
        )

    def write_region_targeted(
        self, region: Sequence[Sequence[int]], values: Any
    ) -> None:
        """Overwrite a region with one fused write per owning processor,
        issued directly at each owner (``am_user.write_region_targeted``)
        instead of through a single intermediary hop."""
        self._checked(
            am_user.write_region_targeted, "write_region_targeted{0}",
            region, values,
        )

    def halo_plan(self) -> Any:
        """The compiled halo-exchange plan for this array (or None when
        it is out of a plan's scope — see ``am_user.halo_plan``)."""
        self._check_live()
        return am_user.halo_plan(self.machine, self.array_id)

    def local_block(self, processor: int) -> tuple[tuple[int, ...], np.ndarray]:
        """``(global origin, interior copy)`` of one processor's section."""
        return self._checked(
            am_user.get_local_block, "get_local_block@{0}", processor
        )

    # -- info ---------------------------------------------------------------------------

    @property
    def dims(self) -> tuple[int, ...]:
        return self.layout.dims

    @property
    def grid(self) -> tuple[int, ...]:
        return self.layout.grid

    @property
    def local_dims(self) -> tuple[int, ...]:
        return self.layout.local_dims

    def info(self, which: str) -> Any:
        return self._checked(
            am_user.find_info, "find_info({0!r})", which,
            processor=self._home,
        )

    # -- borders ----------------------------------------------------------------------------

    def verify_borders(self, border_info: Any, indexing: Optional[str] = None) -> None:
        """§4.2.7: ensure borders match, reallocating sections if needed."""
        self._checked(
            am_user.verify_array,
            "verify_array",
            self.layout.rank,
            border_info,
            indexing if indexing is not None else self.layout.indexing,
            processor=self._home,
        )
        self.layout = self.info("layout")

    # -- durability ---------------------------------------------------------------------------

    def checkpoint(self) -> Any:
        """Epoch-consistent snapshot of the whole array (quiesces writers
        at a barrier); also becomes the latest checkpoint used by
        replication-free recovery."""
        return self._checked(
            am_user.checkpoint_array, "checkpoint_array", processor=self._home
        )

    def restore(self, snapshot: Any) -> None:
        """Write a snapshot back under a fresh epoch; stale in-flight
        replica updates from before the restore are rejected."""
        self._checked(
            am_user.restore_array, "restore_array", snapshot,
            processor=self._home,
        )

    def flush(self) -> int:
        """Drain this array's pending write-behind writes (repro.perf);
        returns the number of writes flushed."""
        self._check_live()
        return am_user.flush_writes(self.machine, self.array_id)

    # -- elastic placement --------------------------------------------------------------------

    def migrate(self, assignments: Any) -> list[int]:
        """Move sections per ``{section: destination processor}``.

        A migration barrier: pending coalesced writes flush first, the
        move commits the epoch it drew when it started, and it rolls back
        under a freshly drawn one if anything fails mid-flight (see
        ``docs/elasticity.md``).  Returns the moved section numbers.
        """
        moved = self._checked(
            am_user.migrate_sections, "migrate_sections({0!r})", assignments,
            processor=self._home,
        )
        return list(moved)

    def rebalance(self, targets: Optional[Sequence[int]] = None) -> list[int]:
        """Repair/respread placement: sections on dead owners (or owners
        outside ``targets``) move to spare processors — including ones
        added at runtime with ``Machine.add_processor()``.  Returns the
        moved section numbers (empty when already balanced)."""
        moved = self._checked(
            am_user.rebalance_array, "rebalance_array", targets,
            processor=self._home,
        )
        return list(moved)

    # -- lifetime ------------------------------------------------------------------------------

    def free(self) -> None:
        self._checked(am_user.free_array, "free_array", processor=self._home)
        self._freed = True

    def __enter__(self) -> "DistributedArray":
        return self

    def __exit__(self, *exc) -> None:
        if not self._freed:
            self.free()

    # -- bulk transfer (gather/scatter through the TP level) -------------------------------------

    def to_numpy(self) -> np.ndarray:
        """Assemble the global array on the caller.

        A whole-array region read: one section copy per owning processor,
        with data crossing address spaces by message copy.
        """
        return self.read_region([(0, d) for d in self.layout.dims])

    def from_numpy(self, values: np.ndarray) -> None:
        """Scatter a global NumPy array into the local sections (a
        whole-array region write — one message per owning processor)."""
        self._check_live()
        values = np.asarray(values)
        if tuple(values.shape) != self.layout.dims:
            raise ValueError(
                f"shape {values.shape} != array dims {self.layout.dims}"
            )
        self.write_region([(0, d) for d in self.layout.dims], values)

    def __repr__(self) -> str:
        return (
            f"<DistributedArray {self.array_id} {self.type_name}"
            f"{list(self.dims)} grid={list(self.grid)}"
            f"{' FREED' if self._freed else ''}>"
        )
