"""Status codes and exception hierarchy.

The paper's library procedures (§4.1.2) report success or failure through an
integer ``Status`` out-parameter.  The paper-faithful ``am_user`` layer keeps
that convention; the pythonic ``core`` layer converts non-OK statuses into
the exceptions defined here.
"""

from __future__ import annotations

import enum
from typing import Optional


class Status(enum.IntEnum):
    """Status values from §4.1.2 of the thesis."""

    OK = 0
    INVALID = 1
    NOT_FOUND = 2
    STALE_EPOCH = 3
    ERROR = 99


STATUS_OK = Status.OK
STATUS_INVALID = Status.INVALID
STATUS_NOT_FOUND = Status.NOT_FOUND
STATUS_STALE_EPOCH = Status.STALE_EPOCH
STATUS_ERROR = Status.ERROR


class ReproError(Exception):
    """Base class for all errors raised by the pythonic layers."""

    status: Status = Status.ERROR


class InvalidParameterError(ReproError):
    """A library procedure was called with an invalid parameter."""

    status = Status.INVALID


class ArrayNotFoundError(ReproError):
    """A distributed-array ID does not reference a live array."""

    status = Status.NOT_FOUND


class SystemError_(ReproError):
    """Internal failure of the runtime (paper's STATUS_ERROR)."""

    status = Status.ERROR


class StaleEpochError(ReproError):
    """A write, adopt, or batch apply carried (or landed on a record at)
    an epoch older than the array's authoritative epoch — the fencing
    token refused it.  This is how a stale owner stranded on the minority
    side of a network partition is prevented from committing after heal:
    its record's epoch was left behind by the recovery that reassigned
    its sections, so every commit it attempts is identifiable and
    refusable (see docs/fault_model.md §9)."""

    status = Status.STALE_EPOCH


class StalePlanError(RuntimeError):
    """A plan was computed against a membership or epoch that changed
    before it finished, and the caller recomputes it from the rewritten
    state and retries.  A section move (migration or recovery) meets it
    when a kill during the plan's own traffic ran recovery reentrantly
    (``state.lock`` is an RLock, so the nested rebuild completes inside
    the outer one); a halo exchange, when a strip was fenced as
    ``STALE_EPOCH`` — its sender's record predates a membership rewrite,
    and distributed-call supervision recovers by failing and re-running
    the call."""


class SingleAssignmentError(ReproError):
    """A definitional variable was defined more than once (§3.1.1.2)."""

    status = Status.INVALID


class SharedVariableConflictError(ReproError):
    """Two concurrent processes made conflicting writes to a shared
    multiple-assignment variable (§3.1.1.4)."""

    status = Status.INVALID


class DeadlockError(ReproError):
    """The runtime detected that every live process is suspended.

    Raised by the fault subsystem's watchdog with the observed wait-graph
    attached (a list of :class:`repro.faults.watchdog.WaitEdge`), so the
    circular dependency can be reported rather than merely suspected.
    """

    status = Status.ERROR

    def __init__(self, message: str = "", wait_graph: Optional[list] = None):
        super().__init__(message)
        self.wait_graph: list = wait_graph or []


class ProcessorFailedError(ReproError):
    """A virtual processor died (§4.1.2 failure-as-value discipline).

    Raised immediately by any receive blocked on a dead processor's
    mailbox, by sends addressed to a dead processor (under the ``"raise"``
    policy), and by attempts to place processes on a dead processor.
    """

    status = Status.ERROR

    def __init__(self, message: str = "", processor: Optional[int] = None):
        super().__init__(message)
        self.processor = processor


class SectionLostError(ReproError):
    """A section of a durable array is lost: its owner died and no
    replica or checkpoint of it survives, so no operation that needs it
    can be served (docs/fault_model.md §6).  Deliberately not a
    :class:`ProcessorFailedError`: retrying cannot bring it back."""

    status = Status.ERROR

    def __init__(self, section: int, cause: str) -> None:
        super().__init__(f"section {section} is lost: {cause}")
        self.section = section
        self.cause = cause


_EXCEPTION_FOR_STATUS = {
    Status.INVALID: InvalidParameterError,
    Status.NOT_FOUND: ArrayNotFoundError,
    Status.STALE_EPOCH: StaleEpochError,
    Status.ERROR: SystemError_,
}


def check_status(status: int, context: str = "") -> None:
    """Raise the exception matching ``status`` if it is not ``OK``.

    User programs may report arbitrary integer statuses (§4.3.1); any
    nonzero value outside the §4.1.2 codes raises :class:`SystemError_`.
    The raised exception's ``status`` attribute preserves the original
    value (the enum member for §4.1.2 codes, the raw integer otherwise),
    and the raw value always appears in the message.
    """
    raw = int(status)
    try:
        st: Optional[Status] = Status(raw)
    except ValueError:
        st = None
    if st is Status.OK:
        return
    cls = _EXCEPTION_FOR_STATUS.get(st, SystemError_)
    label = st.name if st is not None else repr(raw)
    exc = cls(
        (context or f"operation failed with status {label}")
        + f" (status={raw})"
    )
    exc.status = st if st is not None else raw
    raise exc
