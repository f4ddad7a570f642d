"""repro.perf: the batching-and-planning layer over the array manager.

Installed automatically by
:func:`~repro.arrays.manager.install_array_manager` as ``machine._perf``;
see :mod:`repro.perf.coalescer` (write-behind batching),
:mod:`repro.perf.commplan` (precompiled halo exchanges), and
``docs/performance.md`` for the flush-point consistency argument.
"""

from __future__ import annotations

from typing import Any, Optional

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
    StalePlanError,
    compile_halo_plan,
)

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
    """One machine's perf state: write coalescer + communication plans."""

    def __init__(self, machine: Any, manager: Any) -> None:
        self.machine = machine
        self.coalescer = WriteCoalescer(machine, manager)
        self.plans = PlanRegistry(machine, manager)

    def flush(
        self, array_id: Any = None, section: Optional[int] = None
    ) -> int:
        """Force pending coalesced writes out (write-behind barrier)."""
        return self.coalescer.flush(array_id, section)

    def drop_array(self, array_id: Any) -> int:
        """Forget a freed array: pending writes and compiled plans."""
        dropped = self.coalescer.discard(array_id)
        self.plans.drop_array(array_id)
        return dropped

    def diagnostics(self) -> dict:
        coalescer = self.coalescer.diagnostics()
        return {
            "enabled": coalescer["enabled"],
            # The headline counters named by Machine.diagnostics()["perf"]:
            "flushes": coalescer["flushes"],
            "coalesced_writes": coalescer["flushed_ops"],
            "coalescer": coalescer,
            "comm_plans": self.plans.diagnostics(),
        }


def get_perf_layer(machine: Any) -> Optional[PerfLayer]:
    """The machine's perf layer (None before the array manager loads)."""
    return getattr(machine, "_perf", None)

