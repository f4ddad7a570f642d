"""Supervised retry of distributed calls (failure-resilience-by-re-execution).

The Chunks-and-Tasks line of work (arXiv:1210.7427) recovers from node
failure by re-executing idempotent work; the thesis' Status protocol
(§4.1.2) already turns partial failure into a value.  :class:`RetryPolicy`
combines the two: a distributed call declared *idempotent* may be
re-executed until it yields ``Status.OK``, with exponential backoff and
deterministic jitter between attempts.

VP death (:class:`~repro.status.ProcessorFailedError`), timeouts, and
non-OK statuses are all mapped to ``Status.ERROR`` between attempts; only
the final attempt's failure escapes to the caller.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from repro.status import ProcessorFailedError, Status
from repro.vp.clock import Clock


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded re-execution with exponential backoff + deterministic jitter.

    ``delay(attempt)`` for attempt 0, 1, 2, ... is
    ``base_delay * multiplier**attempt * (1 + jitter * u)`` where ``u`` is
    a uniform [0, 1) draw seeded by ``(seed, attempt)`` — the same policy
    object produces the same backoff schedule on every run.
    """

    max_attempts: int = 3
    base_delay: float = 0.01
    multiplier: float = 2.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.jitter < 0 or self.multiplier <= 0:
            raise ValueError("backoff parameters must be non-negative")

    def delay(self, attempt: int, label: Optional[str] = None) -> float:
        """Backoff before retrying ``attempt``.

        ``label`` names the supervised call drawing the delay: two
        concurrent calls sharing one policy object get *different* jitter
        streams (seeded by ``(seed, label, attempt)``), so their retries
        do not land on a shared VP in lockstep.  Without a label the
        schedule depends only on ``(seed, attempt)``, as before.
        """
        token = (
            f"{self.seed}:{attempt}"
            if label is None
            else f"{self.seed}:{label}:{attempt}"
        )
        u = random.Random(token).random()
        return self.base_delay * (self.multiplier ** attempt) * (
            1.0 + self.jitter * u
        )


@dataclass
class AttemptRecord:
    """What one attempt of a supervised call produced."""

    attempt: int
    status: Any
    error: Optional[str] = None


def run_with_retry(
    attempt_fn: Callable[[], Any],
    policy: RetryPolicy,
    classify: Callable[[Any], Any],
    clock: Clock,
    label: Optional[str] = None,
) -> tuple[Any, list[AttemptRecord]]:
    """Drive ``attempt_fn`` under ``policy``.

    ``classify(result)`` returns the attempt's Status; a retryable
    exception (``ProcessorFailedError``/``TimeoutError``) counts as
    ``Status.ERROR``.  Returns ``(last_result_or_exception, history)``;
    the caller decides how to surface the final failure.  The backoff
    sleeps on ``clock`` (a distributed call passes its machine's).
    ``label`` decorrelates this call's backoff jitter from other calls
    sharing the policy (see :meth:`RetryPolicy.delay`).
    """
    history: list[AttemptRecord] = []
    last: Any = None
    for attempt in range(policy.max_attempts):
        try:
            result = attempt_fn()
        except (ProcessorFailedError, TimeoutError) as exc:
            history.append(
                AttemptRecord(attempt, Status.ERROR, error=str(exc))
            )
            last = exc
        else:
            status = classify(result)
            history.append(AttemptRecord(attempt, status))
            last = result
            if status is Status.OK or status == int(Status.OK):
                return result, history
        if attempt + 1 < policy.max_attempts:
            clock.sleep(policy.delay(attempt, label))
    return last, history


def supervised_call(
    machine,
    processors: Sequence[int],
    program: Callable[..., Any],
    parameters: Sequence[Any],
    policy: RetryPolicy,
    combine: Optional[Any] = None,
    timeout: Optional[float] = None,
    restore_arrays: Optional[Sequence[Any]] = None,
):
    """An idempotent :func:`~repro.calls.api.distributed_call` under retry.

    Convenience wrapper equivalent to
    ``distributed_call(..., retry=policy, idempotent=True)``.

    ``restore_arrays`` lists distributed arrays (handles or
    :class:`~repro.arrays.record.ArrayID`\\ s) the program mutates: each is
    checkpointed before the first attempt, and every retry restores the
    checkpoints first — so re-execution starts from the pre-attempt epoch
    rather than the torn state a failed attempt half-wrote.
    """
    from repro.calls.api import distributed_call

    return distributed_call(
        machine,
        processors,
        program,
        parameters,
        combine=combine,
        timeout=timeout,
        retry=policy,
        idempotent=True,
        restore_arrays=restore_arrays,
    )
