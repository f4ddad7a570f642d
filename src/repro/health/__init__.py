"""Heartbeat failure detection: inferring death from silence.

Every robustness layer before this one learned about death from a
perfect oracle — ``Machine.fail()`` synchronously notified its
listeners, so detection was instant, never wrong, and partitions could
not exist.  :class:`~repro.health.detector.FailureDetector` replaces
that oracle as the *source* of failure events: virtual processors emit
periodic ``kind="heartbeat"`` messages over the ordinary fabric, a
monitor tracks how long each VP has been silent, and the verdict climbs
through ``alive -> suspect -> dead`` as that silence passes
``suspect_after`` and then ``dead_after`` rounds.  Because the
heartbeats ride the transport stack, everything that perturbs ordinary
traffic — :class:`~repro.faults.transport.FaultyTransport` drops and
delays, :class:`~repro.faults.partition.PartitionPlan` cuts — perturbs
detection too, which is exactly what makes false suspicion (and the
quarantine/rejoin path that survives it) testable.

See ``docs/fault_model.md`` §9 for the suspicion lifecycle and the
split-brain fencing argument.
"""

from repro.health.detector import (
    HEARTBEAT_KIND,
    FailureDetector,
    HealthEvent,
    HealthState,
    install_detector,
)

__all__ = [
    "HEARTBEAT_KIND",
    "FailureDetector",
    "HealthEvent",
    "HealthState",
    "install_detector",
]
