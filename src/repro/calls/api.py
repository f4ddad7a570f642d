"""``am_user:distributed_call`` (§4.3.1).

Executes a data-parallel SPMD program once per processor of a group,
suspending the caller until all copies complete (Fig 3.2).  Parameters are
specified per §3.3.1.2 (see :mod:`repro.calls.params`); the postcondition
implemented here is the §4.3.1 specification:

* ``Local`` parameters arrive as each copy's local section (mutable,
  in/out);
* ``Index`` parameters carry the copy's position in the processors array;
* the per-copy ``status`` values are merged with the caller's combine
  program (default ``am_util:max``) into the call's Status;
* each ``Reduce`` parameter's per-copy values are merged pairwise with its
  own combine program and delivered to the caller.

The called program receives an :class:`~repro.spmd.context.SPMDContext` as
its leading argument — the Python analogue of the ambient message-passing
environment plus the relocatability contract of §3.5.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro.arrays import am_user
from repro.calls.combine import make_combine_program
from repro.calls.do_all import do_all
from repro.calls.params import CallPlan
from repro.calls.wrapper import build_wrapper, next_call_group
from repro.obs.spans import span as obs_span
from repro.pcn.defvar import DefVar
from repro.status import Status
from repro.vp.machine import Machine


@dataclass
class CallResult:
    """Outcome of a distributed call.

    ``attempts`` records the supervision history when the call ran under a
    :class:`~repro.faults.retry.RetryPolicy` (None for unsupervised calls);
    ``error`` carries the final attempt's exception when supervision was
    exhausted by machine-level failures rather than non-OK statuses.
    """

    status: Status
    reductions: list = field(default_factory=list)
    attempts: Optional[list] = None
    error: Optional[BaseException] = None

    def __iter__(self):
        yield self.status
        yield self.reductions


# Per-call serial for backoff-jitter decorrelation: each supervised call
# gets a distinct label, so calls sharing one RetryPolicy do not retry in
# lockstep (see RetryPolicy.delay).
_CALL_LABELS = itertools.count()


def distributed_call(
    machine: Machine,
    processors: Sequence[int],
    program: Callable[..., Any],
    parameters: Sequence[Any],
    combine: Optional[Any] = None,
    status_out: Optional[DefVar] = None,
    timeout: Optional[float] = None,
    retry: Optional[Any] = None,
    idempotent: bool = False,
    restore_arrays: Optional[Sequence[Any]] = None,
) -> CallResult:
    """Call ``program`` concurrently on every processor in ``processors``.

    Returns a :class:`CallResult`; also defines ``status_out`` (if given)
    and each ``Reduce`` spec's ``out`` definitional variable — both become
    defined only on completion of all copies (§4.3.1 postcondition), so PCN
    code can synchronise on them.

    ``combine`` merges per-copy status values when a ``status`` parameter
    is present; with no status parameter the call's Status is OK provided
    every wrapper completed cleanly (the wrapper reports find_local and
    program failures through the status slot regardless).

    ``retry`` supervises the call with a
    :class:`~repro.faults.retry.RetryPolicy`: non-OK statuses, timeouts,
    and VP deaths are mapped to ``Status.ERROR`` between attempts and the
    whole call is re-executed.  Because re-execution repeats side effects,
    the caller must declare the call ``idempotent``.  With supervision the
    final machine-level failure is returned as a ``Status.ERROR`` result
    (failure-as-value, §4.1.2) rather than raised.

    ``restore_arrays`` (supervised calls only) lists distributed arrays —
    handles exposing ``array_id`` or raw ``ArrayID``\\ s — that the program
    mutates.  Each is checkpointed before the first attempt; every retry
    restores the checkpoints first, so re-execution starts from the
    pre-attempt epoch instead of the torn state a failed attempt
    half-wrote (Chunks-and-Tasks re-execution over recoverable data,
    arXiv:1210.7427).
    """
    plan = CallPlan.of(parameters)
    procs = [int(p) for p in processors]
    if not procs:
        raise ValueError("distributed call over an empty processor group")
    if len(set(procs)) != len(procs):
        raise ValueError("processor group contains duplicates")
    for p in procs:
        machine.processor(p)  # validate range
    if retry is not None and not idempotent:
        raise ValueError(
            "retry supervision re-executes the program; the call must be "
            "declared idempotent=True"
        )
    if restore_arrays and retry is None:
        raise ValueError(
            "restore_arrays only applies to supervised calls (retry=...): "
            "restores happen between retry attempts"
        )
    if timeout is None and machine.default_recv_timeout is not None:
        # Inherit the machine's receive deadline as the call bound, with
        # margin: the copies' blocked receives fire at the deadline and
        # the wrapper still needs to fold their ERROR statuses — an equal
        # join bound would race them.
        timeout = machine.default_recv_timeout + 30.0

    if combine is not None and not plan.has_status:
        # §4.3.1 precondition: a combine program is only meaningful with a
        # status parameter.
        raise ValueError(
            "combine program supplied but no 'status' parameter in the call"
        )

    snapshots: list[tuple[Any, Any]] = []
    if retry is not None and restore_arrays:
        for array in restore_arrays:
            array_id = getattr(array, "array_id", array)
            snapshot, snap_status = am_user.checkpoint_array(machine, array_id)
            if snap_status is not Status.OK:
                raise ValueError(
                    f"cannot checkpoint {array_id} before supervised call: "
                    f"{snap_status.name}"
                )
            snapshots.append((array_id, snapshot))
    attempt_counter = itertools.count()

    def attempt() -> CallResult:
        # Retries first roll every restore_arrays target back to its
        # pre-attempt checkpoint, so re-execution never observes a torn
        # write from the failed attempt.
        if next(attempt_counter) > 0 and snapshots:
            for array_id, snapshot in snapshots:
                restore_status = am_user.restore_array(
                    machine, array_id, snapshot
                )
                if restore_status is not Status.OK:
                    return CallResult(
                        status=Status.ERROR,
                        reductions=[],
                        error=RuntimeError(
                            f"restore of {array_id} before retry failed: "
                            f"{restore_status.name}"
                        ),
                    )
        # A fresh call group per attempt: stale messages from a failed
        # attempt can never be intercepted by the re-execution (§3.4.1).
        group = next_call_group()
        wrapper = build_wrapper(machine, program, plan, procs, group)
        combiner = make_combine_program(
            combine, [r.combine for r in plan.reductions]
        )

        with obs_span(machine, "attempt", group=str(group)):
            folded = do_all(
                machine, procs, wrapper, plan.parms, combiner, timeout=timeout
            )
        # Per-copy statuses are plain integers assigned by the called
        # program (§4.3.1); the merged value is mapped onto the Status enum
        # when it is one of the §4.1.2 codes and kept as an int otherwise.
        raw_status = int(folded[0])
        try:
            status = Status(raw_status)
        except ValueError:
            status = raw_status  # type: ignore[assignment]
        return CallResult(status=status, reductions=list(folded[1:]))

    with obs_span(
        machine,
        "distributed_call",
        program=getattr(program, "__name__", "program"),
        processors=len(procs),
        supervised=retry is not None,
    ):
        if retry is None:
            result = attempt()
        else:
            from repro.faults.retry import run_with_retry

            label = f"{getattr(program, '__name__', 'call')}#{next(_CALL_LABELS)}"
            last, history = run_with_retry(
                attempt, retry, lambda r: r.status, machine.clock, label
            )
            result = last
            if isinstance(last, BaseException):
                result = CallResult(Status.ERROR, [], error=last)
            result.attempts = history

    if status_out is not None:
        status_out.define(result.status)
    for spec, value in zip(plan.reductions, result.reductions):
        if spec.out is not None:
            spec.out.define(value)
    return result
