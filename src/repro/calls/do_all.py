"""The ``do_all`` primitive (§5.2.1).

``do_all`` executes a program concurrently on every processor of a group,
waits for all copies to complete, and pairwise-combines their per-copy
status values with a combine program.  It is the execution engine beneath
every distributed call; the generated wrapper program is what it runs.

Per the §5.2.1 specification, the program is called as
``program(index, parms, status)`` where ``status`` is a definitional
variable the copy must define; the results are folded **pairwise** with the
combine program.  We fold in index order, which is correct for any
associative combine (commutativity is not assumed, §3.3.1.2).
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

from repro.obs.spans import span as obs_span
from repro.pcn.defvar import DefVar
from repro.status import Status
from repro.vp import fabric
from repro.vp.machine import Machine


def do_all(
    machine: Machine,
    processors: Sequence[int],
    program: Callable[[int, Any, DefVar], None],
    parms: Any,
    combine: Callable[[Any, Any], Any],
    status_out: Optional[DefVar] = None,
    timeout: Optional[float] = None,
) -> Any:
    """Run ``program`` once per processor; fold the per-copy statuses.

    Each copy executes as a process *on* its processor (it is a subprocess
    of the calling process, §3.4.2, which is why the sharing restriction of
    PCN extends to it).  The fold result is returned and, when supplied,
    defined on ``status_out`` — which, per §4.1.2, becomes defined only on
    completion of all copies, so callers may synchronise on it.
    """
    procs = [int(p) for p in processors]
    if not procs:
        raise ValueError("do_all over an empty processor group")
    # Refuse to start on a group containing a dead VP: placement would
    # fail partway through the spawn loop, stranding the earlier copies.
    machine.check_alive(procs)
    # A distributed-call boundary is a flush point for the write-behind
    # coalescer (repro.perf): every element write accepted before the
    # call is visible to the called program's local sections (§3.3
    # sequential call equivalence).
    perf = getattr(machine, "_perf", None)
    if perf is not None:
        perf.coalescer.flush()
    # Anonymous: each is read only after every copy has been joined.
    statuses = [DefVar() for _ in procs]
    processes = []
    # One trace scope per call: every copy inherits the same trace id, so
    # all wrapper traffic (find_local hops, SPMD messages) of one
    # distributed call is reconstructible from the trace interceptor.  An
    # ambient trace (e.g. opened by an enclosing observability span) is
    # kept, so the call's messages stitch onto the span that made it; only
    # a trace-less caller gets a fresh ``dcall`` root.
    ambient, _ = fabric.current_trace()
    trace_id = ambient if ambient is not None else fabric.new_trace_id("dcall")
    with obs_span(machine, "do_all", processors=len(procs)):
        with fabric.execution_context(trace_id=trace_id):
            for i, p in enumerate(procs):
                node = machine.processor(p)
                processes.append(
                    node.spawn(
                        program, i, parms, statuses[i], name=f"do_all[{i}]@{p}"
                    )
                )

        # Join every copy; a copy that raised poisons the whole call with
        # STATUS_ERROR rather than hanging the caller.
        error: Optional[BaseException] = None
        for proc in processes:
            try:
                proc.join(timeout=timeout)
            except BaseException as exc:  # noqa: BLE001
                if error is None:
                    error = exc
        if error is not None:
            result: Any = Status.ERROR
            if status_out is not None:
                status_out.define(result)
            raise error

        values = [st.read(timeout=timeout) for st in statuses]
        with obs_span(machine, "combine", parts=len(values)):
            folded = values[0]
            for value in values[1:]:
                folded = combine(folded, value)
    if status_out is not None:
        status_out.define(folded)
    return folded
