"""Generated wrapper programs for distributed calls (§5.2.2, §F.3-§F.5).

The thesis' source-to-source transformation turns each
``am_user:distributed_call`` into a ``do_all`` over a generated *wrapper*
program.  The wrapper is two-level:

* the **first-level** wrapper extracts, from the bundled parameter tuple,
  any values needed to *declare* local variables (reduction lengths — §F.3:
  "the size of local reduction variables can depend on a global-constant
  parameter"), then calls the second level;
* the **second-level** wrapper (§F.4) unbundles the remaining parameters,
  obtains local sections with ``am_user:find_local``, declares the local
  status and reduction variables, calls the data-parallel program, and
  packs ``(local_status, local_reduce_1, ...)`` into the tuple the combine
  program merges.

We generate the same structure as closures, from the
:class:`~repro.calls.params.CallPlan` that :mod:`repro.pcn.ptn` renders as
PCN source.  Failure behaviour follows the generated PCN exactly: a
find_local failure or malformed parameter bundle defines the status tuple
as STATUS_INVALID without calling the program; a program that raises
yields STATUS_ERROR.  A program writes its local sections in place, so a
copy whose program has run, returned or raised, reseeds the mirrors of its
replicated sections before it answers (docs/fault_model.md §6).
"""

from __future__ import annotations

import itertools
from contextlib import suppress
from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.arrays import am_user
from repro.arrays.manager import get_array_manager
from repro.obs.spans import span as obs_span
from repro.calls.params import CallPlan
from repro.pcn.defvar import DefVar
from repro.spmd.context import OutCell, SPMDContext
from repro.status import ProcessorFailedError, Status
from repro.vp.machine import Machine

_call_ids = itertools.count()


def next_call_group() -> tuple:
    """A machine-unique group id for one distributed call."""
    return ("dcall", next(_call_ids))


def build_wrapper(
    machine: Machine,
    program: Callable[..., Any],
    plan: CallPlan,
    processors: Sequence[int],
    group: Any,
) -> Callable[[int, Any, DefVar], None]:
    """Generate the wrapper program for one distributed call.

    The returned callable has the ``do_all`` program signature
    ``wrapper(index, parms, status_var)``.  ``parms`` is ``plan.parms``:
    the bundled constants/array IDs and, per §F, the reduction *lengths*,
    unpacked by the first level before local declarations happen.  What
    each parameter position receives was decided when ``plan`` was built;
    a copy only fills the positions in.
    """
    procs = tuple(int(p) for p in processors)
    n_reduce = len(plan.reductions)

    def failure_tuple(status: Status) -> tuple:
        return (int(status),) + (None,) * n_reduce

    def wrapper_first_level(index: int, parms: Any, status_var: DefVar) -> None:
        # §F.3: pattern-match the bundle; malformed -> STATUS_INVALID.
        try:
            bundle, reduce_lengths = parms
        except (TypeError, ValueError):
            status_var.define(failure_tuple(Status.INVALID))
            return
        if machine._observer is None:
            # Observation off: no span to build, not even a no-op one.
            wrapper_second_level(index, bundle, status_var, reduce_lengths)
            return
        with obs_span(machine, "wrapper", index=index):
            wrapper_second_level(index, bundle, status_var, reduce_lengths)

    def wrapper_second_level(
        index: int,
        bundle: Sequence[Any],
        status_var: DefVar,
        reduce_lengths: Sequence[int],
    ) -> None:
        # §F.4: declare local variables now that lengths are known.
        if len(reduce_lengths) != n_reduce or len(bundle) != len(plan.specs):
            status_var.define(failure_tuple(Status.INVALID))
            return
        ctx = SPMDContext(machine, procs, index, group)
        # Every position starts as its bundled value, which is what a
        # constant receives; the others are filled in by role.
        arguments = list(bundle)
        for i in plan.local_at:
            # §F.4: obtain the local section via am_user:find_local on the
            # executing processor; failure aborts the copy with
            # STATUS_INVALID (the generated "default -> _l1=[1]").
            section, st = am_user.find_local(
                machine, bundle[i], processor=procs[index]
            )
            if st is not Status.OK or section is None:
                status_var.define(failure_tuple(Status.INVALID))
                return
            arguments[i] = section
        for i in plan.index_at:
            arguments[i] = index
        status_cell: Optional[OutCell] = None
        if plan.status_at is not None:
            status_cell = arguments[plan.status_at] = OutCell("local_status")
        buffers = [
            np.zeros(int(length), dtype=dtype)
            for length, dtype in zip(reduce_lengths, plan.dtypes)
        ]
        for i, buf in zip(plan.reduce_at, buffers):
            arguments[i] = buf

        try:
            try:
                program(ctx, *arguments)
            except Exception:
                # A program that raised may have written first: its
                # sections are reseeded all the same, best effort, and the
                # copy reports the program's own error, not the reseed's.
                with suppress(Exception):
                    reseed_mirrors(bundle, procs[index])
                raise
            reseed_mirrors(bundle, procs[index])
        except ProcessorFailedError:
            # Machine-level failure (a VP died under this call): propagate
            # as an exception so supervision/failover layers can react,
            # but still define the status tuple so sibling copies folding
            # on it never hang.
            status_var.define(failure_tuple(Status.ERROR))
            raise
        except Exception:  # noqa: BLE001 - a failed copy poisons the call
            status_var.define(failure_tuple(Status.ERROR))
            return

        # §F.4 tail: pack local status + reductions into the result tuple.
        if status_cell is not None:
            if not status_cell.assigned:
                # §4.3.1 requires the program to assign status before
                # completing; not doing so is a program error.
                local_status = int(Status.ERROR)
            else:
                local_status = int(status_cell.value)
        else:
            local_status = int(Status.OK)
        result: list[Any] = [local_status]
        for buf in buffers:
            result.append(buf[0].item() if len(buf) == 1 else buf.copy())
        status_var.define(tuple(result))

    def reseed_mirrors(bundle: Sequence[Any], processor: int) -> None:
        # The program wrote its local sections in place, past their
        # replicas: before the copy answers, each replicated array's
        # mirrors are reseeded from its section here, as recovery reseeds
        # them (k replica updates a section; none without a replica).
        for array_id in dict.fromkeys(bundle[i] for i in plan.local_at):
            state = get_array_manager(machine).durability_state(array_id)
            if state is not None and state.replication > 0:
                machine.server.request(
                    "reseed_replicas_local", array_id, DefVar(),
                    processor=processor,
                )

    return wrapper_first_level
