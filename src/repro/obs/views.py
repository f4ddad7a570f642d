"""Metrics that are views of counters the runtime keeps anyway.

An event is counted once, by the subsystem it happens in: the coalescer
counts its flushes, the plan registry its compiles and strips, every
:class:`~repro.arrays.durability.DurabilityState` its epoch and rebuilt
sections, the failure detector its heartbeats and verdicts, the machine
its routed messages.  Those counters are always on and start with the
machine.  The series below are read from them when the registry is
exported — never fed — so they agree with ``Machine.diagnostics()`` by
construction, count from machine start, and end when their owner does
(a freed array's series go with its durability state, a closed
detector's with the detector).
"""

from __future__ import annotations

import collections
from typing import Any, Iterator

from repro.obs.metrics import _label_key

# metric, type, owner (a key of ``_owners``), where that owner keeps it.
VIEWS = (
    ("repro_routed_messages_total", "counter", "machine", "messages"),
    ("repro_routed_bytes_total", "counter", "machine", "bytes"),
    ("repro_live_processes", "gauge", "vp", "live_processes"),
    ("repro_perf_flushes_total", "counter", "coalescer", "flushes"),
    ("repro_perf_coalesced_writes_total", "counter", "coalescer", "flushed_ops"),
    ("repro_perf_inline_batches_total", "counter", "coalescer", "inline_batches"),
    ("repro_comm_plans_compiled_total", "counter", "plans", "compiled"),
    ("repro_comm_plans_hits_total", "counter", "plans", "hits"),
    ("repro_comm_plans_invalidations_total", "counter", "plans", "invalidations"),
    ("repro_halo_exchanges_total", "counter", "plans", "exchanges"),
    ("repro_halo_strips_total", "counter", "plans", "strips_claimed"),
    ("repro_halo_bytes_total", "counter", "plans", "bytes_claimed"),
    ("repro_array_epoch", "gauge", "array", "epoch"),
    ("repro_sections_rebuilt_total", "counter", "array", "sections_rebuilt"),
    ("repro_sections_migrated_total", "counter", "array", "sections_migrated"),
    ("repro_fenced_writes_total", "counter", "array", "fenced_writes"),
    ("repro_replica_stale_rejects_total", "counter", "array", "stale_rejected"),
    ("repro_heartbeats_total", "counter", "vp_health", "heartbeats"),
    ("repro_health_suspicions_total", "counter", "vp_health", "suspect"),
    ("repro_health_false_positives_total", "counter", "vp_health", "quarantine"),
    ("repro_health_transitions_total", "counter", "verdict", "count"),
)


def _owners(machine: Any) -> dict:
    """The counter owners reachable from ``machine`` right now: owner name
    -> ``[(labels, counters)]``, one entry per labelled instance, labels
    as the registry keys them."""
    owners = {
        "machine": [((), machine.traffic_snapshot())],
        "vp": [
            (_label_key({"vp": node.number}),
             {"live_processes": node.live_process_count()})
            for node in machine.processors()
        ],
    }
    perf = getattr(machine, "_perf", None)
    if perf is not None:
        owners["coalescer"] = [((), vars(perf.coalescer))]
        owners["plans"] = [((), vars(perf.plans))]
    manager = getattr(machine, "_array_manager", None)
    if manager is not None:
        owners["array"] = [
            (_label_key({"array": array_id.as_tuple()}), vars(state))
            for array_id, state in manager.durability_states()
        ]
    health = machine._health
    if health is not None:
        # The detector's event log is its one record of a verdict; the
        # per-VP suspicion and false-positive series are that log, cut
        # by transition.
        verdicts = collections.Counter(
            (event.vp, event.transition) for event in health.events()
        )
        owners["vp_health"] = [
            (_label_key({"vp": vp}),
             {"heartbeats": beats, "suspect": verdicts[vp, "suspect"],
              "quarantine": verdicts[vp, "quarantine"]})
            for vp, beats in health.snapshot()["heartbeats"].items()
        ]
        owners["verdict"] = [
            (_label_key({"vp": vp, "transition": transition}),
             {"count": count})
            for (vp, transition), count in sorted(verdicts.items())
        ]
    return owners


def read(machine: Any) -> Iterator[tuple]:
    """``(metric, type, labels, value)`` for every view series, each
    value read from its owner now."""
    owners = _owners(machine)
    for metric, kind, owner, key in VIEWS:
        for labels, counters in owners.get(owner, ()):
            yield metric, kind, labels, counters[key]
