"""repro.perf: the batching-and-planning layer over the array manager.

Installed automatically by
:func:`~repro.arrays.manager.install_array_manager` as ``machine._perf``;
see :mod:`repro.perf.coalescer` (write-behind batching),
:mod:`repro.perf.commplan` (precompiled halo exchanges), and
``docs/performance.md`` for the flush-point consistency argument.
:class:`PerfLayer` is also the one route by which a unit for one section —
a write batch or a halo strip — reaches that section's holder.
"""

from __future__ import annotations

import copy
from typing import Any, Optional

from repro.pcn.defvar import DefVar
from repro.perf.coalescer import (
    ARRAY_BATCH_KIND,
    ArrayBatch,
    WriteCoalescer,
    define_once,
)
from repro.perf.commplan import (
    HALO_BULK_KIND,
    CommPlan,
    HaloExchange,
    HaloStrip,
    PlanRegistry,
    compile_halo_plan,
)
from repro.status import ProcessorFailedError, StalePlanError

__all__ = [
    "ARRAY_BATCH_KIND",
    "ArrayBatch",
    "CommPlan",
    "HALO_BULK_KIND",
    "HaloExchange",
    "HaloStrip",
    "PerfLayer",
    "PlanRegistry",
    "StalePlanError",
    "WriteCoalescer",
    "compile_halo_plan",
    "define_once",
    "get_perf_layer",
]


class PerfLayer:
    """One machine's perf state: write coalescer + communication plans,
    and the route by which their units reach a section's holder.

    A *unit* is an :class:`ArrayBatch` or a :class:`HaloStrip`: it names
    ``array_id`` and ``section``, travels under its ``kind`` and carries a
    ``done`` variable the processor it reaches answers ``"ok"``,
    ``"not_found"`` (it does not hold the section: the array manager's
    holder check) or ``"stale"`` (its epoch fence).  :meth:`post` sends a
    unit, :meth:`secure` waits for its answer and re-sends it;
    ``max_retries`` and ``retry_timeout`` are the route's one pair of
    settings.
    """

    def __init__(self, machine: Any, manager: Any) -> None:
        self.machine = machine
        self.manager = manager
        # Re-sends a unit gets after its first attempt, and how long (real
        # seconds) an attempt waits for its answer.
        self.max_retries = 3
        self.retry_timeout = 5.0
        self.coalescer = WriteCoalescer(self)
        self.plans = PlanRegistry(self)
        # What a unit's kind runs where it lands: at the kind handler of
        # its message, or here, in place, when its sender is its owner.
        self._apply = {
            ARRAY_BATCH_KIND: manager._apply_batch,
            HALO_BULK_KIND: self.plans.apply_strip,
        }

    # -- the route -------------------------------------------------------------

    def post(
        self, unit: Any, source: Optional[int], owner: Optional[int] = None
    ) -> Optional[int]:
        """Send ``unit`` from ``source`` to the owner of its section —
        ``owner``, or when that is not given the owner by the durability
        state, read under ``state.lock``: while a plan moves the section
        this waits for its commit.  Returns the processor it was sent to,
        or None when it was applied in place: the owner is the sender, or
        ``source`` is None and the owner originates it.  Raises
        :class:`ProcessorFailedError` when the section has no live owner
        (a freed array has none).
        """
        machine = self.machine
        if owner is None:
            state = self.manager.durability_state(unit.array_id)
            if state is not None:
                with state.lock:
                    owner = state.processors[unit.section]
        if owner is None or owner in machine._failed:
            raise ProcessorFailedError(
                f"section {unit.section} of {unit.array_id} has no live "
                "owner",
                processor=owner,
            )
        if source is None or source == owner:
            self._apply[unit.kind](owner, unit)
            return None
        machine.send(
            source, owner, unit,
            tag=(unit.kind, unit.array_id.as_tuple()), kind=unit.kind,
        )
        return owner

    def secure(
        self, unit: Any, source: Optional[int], dest: Optional[int],
        counts: Any,
    ) -> Optional[str]:
        """Wait for ``unit``'s answer — ``dest`` is what :meth:`post`
        returned for it — and re-send a fresh copy to the owner read again
        on ``"not_found"``, on ``"stale"`` or when no answer comes within
        ``retry_timeout``, at most ``max_retries`` times, each counted in
        ``counts.retries``.  Returns the last answer, None when the last
        attempt got none.  A copy shares everything but ``done`` with the
        original, so a late original and its copy are one unit at the
        holder (a batch's sequence number, a strip's rendezvous)."""
        resends = 0
        while True:
            done = unit.done
            if not done.data():
                # About to suspend: name the variable for the wait graph
                # and the timeout message.
                done.name = unit.label(dest)
            try:
                answer = done.read(timeout=self.retry_timeout)
            except TimeoutError:
                answer = None
            if answer == "ok" or resends == self.max_retries:
                return answer
            resends += 1
            counts.retries += 1
            unit = copy.copy(unit)
            unit.done = DefVar()
            dest = self.post(unit, source)

    # -- the layer -------------------------------------------------------------

    def drop_array(self, array_id: Any) -> int:
        """Forget a freed array: pending writes and compiled plans."""
        dropped = self.coalescer.discard(array_id)
        self.plans.drop_array(array_id)
        return dropped

    def diagnostics(self) -> dict:
        coalescer = self.coalescer.diagnostics()
        return {
            # The layer is installed: as with every other subsystem's
            # diagnostics, "enabled" says so.
            "enabled": True,
            # The headline counters named by Machine.diagnostics()["perf"]:
            "flushes": coalescer["flushes"],
            "coalesced_writes": coalescer["flushed_ops"],
            "coalescer": coalescer,
            "comm_plans": self.plans.diagnostics(),
        }


def get_perf_layer(machine: Any) -> Optional[PerfLayer]:
    """The machine's perf layer (None before the array manager loads)."""
    return getattr(machine, "_perf", None)

