"""Fault injection, failure semantics, and supervision.

The thesis' Status protocol (§4.1.2) makes partial failure a *value*; this
package makes partial failure an *input*.  It provides:

* :class:`~repro.faults.plan.FaultPlan` / :class:`~repro.faults.plan.KillSpec`
  — a seeded, deterministic description of message faults (drop, delay,
  duplicate, reorder) and scheduled VP deaths;
* :class:`~repro.faults.transport.FaultyTransport` — installs a plan on a
  machine's transport hook, composable with every existing workload;
* :class:`~repro.faults.partition.PartitionPlan` /
  :class:`~repro.faults.partition.PartitionCut` — named network cuts
  between VP groups, cut and healed by hand (and one-way asymmetric
  variants), composed into the transport to starve the failure detector
  and manufacture split-brain scenarios;
* :class:`~repro.faults.retry.RetryPolicy` — bounded re-execution with
  deterministic backoff for idempotent distributed calls (the
  Chunks-and-Tasks resilience posture, arXiv:1210.7427);
* :class:`~repro.faults.watchdog.Watchdog` — wait-graph construction over
  suspended DefVar reads and empty-mailbox receives, raising
  :class:`~repro.status.DeadlockError` on collective suspension.

See ``docs/fault_model.md`` for the taxonomy and a cookbook.
"""

from repro.arrays.durability import RecoveryCoordinator, install_recovery
from repro.faults.partition import (
    PartitionCut,
    PartitionPlan,
    random_partitions,
)
from repro.faults.plan import FaultDecision, FaultPlan, KillSpec, random_kills
from repro.faults.retry import (
    AttemptRecord,
    RetryPolicy,
    run_with_retry,
    supervised_call,
)
from repro.faults.transport import FaultStats, FaultyTransport
from repro.faults.watchdog import WaitEdge, Watchdog

__all__ = [
    "AttemptRecord",
    "FaultDecision",
    "FaultPlan",
    "FaultStats",
    "FaultyTransport",
    "KillSpec",
    "PartitionCut",
    "PartitionPlan",
    "RecoveryCoordinator",
    "RetryPolicy",
    "WaitEdge",
    "Watchdog",
    "install_recovery",
    "random_kills",
    "random_partitions",
    "run_with_retry",
    "supervised_call",
]
