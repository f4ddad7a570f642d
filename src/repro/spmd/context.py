"""Execution context handed to each copy of a called SPMD program.

A distributed call executes the called program once per processor in the
group (§3.1.4).  Each copy receives an :class:`SPMDContext` packaging the
§3.3.1.2 call environment:

* ``procs`` — the processors array the call was distributed over (the
  relocatability source of processor identity, §3.5);
* ``index`` — this copy's index into ``procs`` (the ``"index"`` parameter);
* ``comm`` — a group/call-scoped communicator for peer communication.

:class:`OutCell` models a by-reference scalar out-parameter (the thesis'
``int *local_status``): the called program assigns it, the wrapper reads it
after the call completes.
"""

from __future__ import annotations

from typing import Any, Hashable, Optional, Sequence

from repro.spmd.comm import GroupComm
from repro.vp.machine import Machine


class OutCell:
    """A write-once-read-by-caller scalar slot (C's ``type *out``)."""

    __slots__ = ("value", "_assigned", "name")

    def __init__(self, name: str = "out", initial: Any = None) -> None:
        self.value = initial
        self._assigned = False
        self.name = name

    def set(self, value: Any) -> None:
        self.value = value
        self._assigned = True

    @property
    def assigned(self) -> bool:
        return self._assigned

    def __repr__(self) -> str:
        return f"<OutCell {self.name}={self.value!r}>"


class SPMDContext:
    """Per-copy environment for a called data-parallel program."""

    def __init__(
        self,
        machine: Machine,
        procs: Sequence[int],
        index: int,
        group: Hashable,
    ) -> None:
        self.machine = machine
        # As GroupComm: ints, and a tuple shared rather than copied.
        self.procs = tuple(procs)
        self.index = int(index)
        self.group = group
        self.comm = GroupComm(machine, self.procs, self.index, group)

    @property
    def num_procs(self) -> int:
        """The ``P`` parameter of the thesis' examples."""
        return len(self.procs)

    @property
    def processor_number(self) -> int:
        """The physical processor this copy executes on."""
        return self.procs[self.index]

    @property
    def node(self):
        """This copy's virtual processor (its address space)."""
        return self.machine.processor(self.processor_number)

    def subcontext(
        self, ranks: Sequence[int], group: Optional[Hashable] = None
    ) -> "SPMDContext":
        """Context for a subgroup of this call's processors."""
        procs = [self.procs[r] for r in ranks]
        index = procs.index(self.processor_number)
        return SPMDContext(
            self.machine,
            procs,
            index,
            group if group is not None else (self.group, "sub"),
        )

    def __repr__(self) -> str:
        return (
            f"<SPMDContext index={self.index}/{self.num_procs} "
            f"on vp{self.processor_number} group={self.group!r}>"
        )
