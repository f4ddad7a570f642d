"""The integrated task/data-parallel runtime facade.

One object wiring together the three layers of the prototype: the virtual
machine, the array manager, and distributed calls.  A task-parallel Python
program holds an :class:`IntegratedRuntime` and uses the §2.1 repertoire:

* ``rt.array(...)`` — create and manipulate distributed data structures;
* ``rt.call(...)`` — call data-parallel programs (suspending, sequential-
  call-equivalent semantics);
* plain Python + :mod:`repro.pcn` composition for everything task-parallel.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.arrays.am_util import load_all, node_array
from repro.arrays.manager import ArrayManager, get_array_manager
from repro.calls.api import CallResult, distributed_call
from repro.core.darray import DistributedArray
from repro.vp.machine import Machine


class IntegratedRuntime:
    """Machine + array manager + distributed calls, ready to use."""

    def __init__(
        self,
        num_nodes: int,
        trace_arrays: bool = False,
        default_recv_timeout: Optional[float] = None,
    ) -> None:
        self.machine = Machine(
            num_nodes, default_recv_timeout=default_recv_timeout
        )
        load_all(self.machine, "am_debug" if trace_arrays else "am")

    def inject_faults(self, plan) -> "Any":
        """Install a :class:`~repro.faults.plan.FaultPlan` on the machine.

        Returns the installed
        :class:`~repro.faults.transport.FaultyTransport` (also usable as a
        context manager via ``with rt.inject_faults(plan): ...``).
        """
        from repro.faults.transport import FaultyTransport

        return FaultyTransport(self.machine, plan).install()

    def observe(self, **options: Any) -> "Any":
        """Enable runtime telemetry (spans and message events).

        Forwards to :meth:`~repro.vp.machine.Machine.observe`; returns the
        installed :class:`~repro.obs.Observer`, also usable as a context
        manager (``with rt.observe() as obs: ...`` uninstalls on exit).
        """
        return self.machine.observe(**options)

    @property
    def observer(self) -> Optional[Any]:
        return self.machine.observer

    def diagnostics(self) -> dict:
        """Machine-health snapshot (dead VPs, pending messages, blockers)."""
        return self.machine.diagnostics()

    @property
    def num_nodes(self) -> int:
        return self.machine.num_nodes

    @property
    def array_manager(self) -> ArrayManager:
        return get_array_manager(self.machine)

    # -- processor groups -----------------------------------------------------------

    def all_processors(self) -> np.ndarray:
        return node_array(0, 1, self.num_nodes)

    def processors(self, first: int, count: int, stride: int = 1) -> np.ndarray:
        """A processor group: ``[first, first+stride, ...]`` (§C.2)."""
        return node_array(first, stride, count)

    def split_processors(self, groups: int) -> list[np.ndarray]:
        """Partition the machine into ``groups`` equal disjoint groups.

        The Fig 3.4 / §6.2 pattern: concurrent distributed calls run on
        disjoint subsets of the available processors.
        """
        if self.num_nodes % groups != 0:
            raise ValueError(
                f"{self.num_nodes} processors do not split into {groups} "
                f"equal groups"
            )
        per = self.num_nodes // groups
        return [node_array(g * per, 1, per) for g in range(groups)]

    # -- distributed data structures ----------------------------------------------------

    def array(
        self,
        type_name: str,
        dims: Sequence[int],
        processors: Optional[Sequence[int]] = None,
        distrib: Optional[Sequence] = None,
        borders: Any = None,
        indexing: str = "row",
    ) -> DistributedArray:
        """Create a distributed array (defaults: all processors, block
        decomposition in every dimension)."""
        procs = (
            self.all_processors() if processors is None else processors
        )
        if distrib is None:
            # The thesis' default ("square" grid) requires an exact N-th
            # root of P; when none exists we fall back to a balanced valid
            # factorisation (documented extension, DESIGN.md).
            from repro.arrays.decomposition import Block, balanced_grid

            dist: Sequence = [
                Block(g) for g in balanced_grid(dims, len(procs))
            ]
        else:
            dist = distrib
        return DistributedArray.create(
            self.machine, type_name, dims, procs, dist,
            borders=borders, indexing=indexing,
        )

    # -- distributed calls -----------------------------------------------------------------

    def call(
        self,
        processors: Sequence[int],
        program: Callable[..., Any],
        parameters: Sequence[Any],
        combine: Optional[Any] = None,
        timeout: Optional[float] = None,
    ) -> CallResult:
        """Make a distributed call (§4.3.1) on a processor group.

        Accepts :class:`DistributedArray` handles directly in the parameter
        list (converted to ``Local`` specs)."""
        from repro.calls.params import Local

        converted = [
            Local(p.array_id) if isinstance(p, DistributedArray) else p
            for p in parameters
        ]
        return distributed_call(
            self.machine,
            processors,
            program,
            converted,
            combine=combine,
            timeout=timeout,
        )

    def call_everywhere(
        self,
        program: Callable[..., Any],
        parameters: Sequence[Any],
        combine: Optional[Any] = None,
    ) -> CallResult:
        return self.call(self.all_processors(), program, parameters, combine)

    def __repr__(self) -> str:
        return f"<IntegratedRuntime nodes={self.num_nodes}>"
