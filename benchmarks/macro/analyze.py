"""Per-layer metrics from one traced run's spans, messages and counters.

Conventions, the same for every layer:

* ``*_per_op`` divides a total over the traced ops;
* ``*_us`` / ``*_ms`` without ``per_op`` is the mean *inclusive* duration
  of one call of that callable, except where the name says ``self``;
* self time is a span's duration minus the part of it covered by its
  direct children — the *union* of the children, because the copies of a
  distributed call are children of ``do_all`` on other threads and
  overlap each other;
* a metric of a layer the workload never enters reads 0 with a count of 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Any, Dict, Iterable, List, Sequence, Tuple

MESSAGE_KINDS = (
    "user", "server_request", "array_batch", "replica_update", "halo_bulk",
)

# Deliveries that run an array-manager handler in the delivering thread:
# their self time is array-manager work, not transport work.
_ARRAY_DELIVERIES = tuple(
    "vp.deliver:" + kind
    for kind in ("server_request", "array_batch", "replica_update")
)

_STAGES = {
    "phase1": "core.stage:phase1-inverse-fft",
    "combine": "core.stage:combine",
    "phase2": "core.stage:phase2-forward-fft",
}


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted sample."""
    if not sorted_values:
        return 0.0
    rank = max(1, int(-(-q * len(sorted_values) // 1)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def _covered(start: int, end: int, children: List[Tuple[int, int]]) -> int:
    """Length of ``[start, end]`` covered by the union of ``children``."""
    covered = 0
    cursor = start
    for child_start, child_end in sorted(children):
        child_start = max(child_start, cursor)
        child_end = min(child_end, end)
        if child_end > child_start:
            covered += child_end - child_start
            cursor = child_end
    return covered


class SpanTable:
    """Totals per span name: calls, inclusive ns, self ns."""

    def __init__(self, spans: Iterable[tuple]) -> None:
        self.spans = list(spans)
        children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
        self.name_of: Dict[int, str] = {}
        for sid, parent, name, start, end, _op, _thread in self.spans:
            children[parent].append((start, end))
            self.name_of[sid] = name
        self.calls: Dict[str, int] = defaultdict(int)
        self.total: Dict[str, int] = defaultdict(int)
        self.self_ns: Dict[str, int] = defaultdict(int)
        for sid, _parent, name, start, end, _op, _thread in self.spans:
            self.calls[name] += 1
            self.total[name] += end - start
            kids = children.get(sid)
            inside = _covered(start, end, kids) if kids else 0
            self.self_ns[name] += (end - start) - inside

    def names(self, prefix: str) -> List[str]:
        return [name for name in self.calls if name.startswith(prefix)]

    def mean_us(self, name: str) -> float:
        calls = self.calls.get(name, 0)
        return self.total[name] / calls / 1e3 if calls else 0.0

    def mean_self_us(self, name: str) -> float:
        calls = self.calls.get(name, 0)
        return self.self_ns[name] / calls / 1e3 if calls else 0.0


def _copy_skew_ms(table: SpanTable) -> float:
    """Mean over distributed calls of (last copy end - first copy end)."""
    ends: Dict[int, List[int]] = defaultdict(list)
    for _sid, parent, name, _start, end, _op, _thread in table.spans:
        if name == "calls.wrapper":
            ends[parent].append(end)
    skews = [max(e) - min(e) for e in ends.values() if len(e) > 1]
    return statistics.fmean(skews) / 1e6 if skews else 0.0


def layer_metrics(
    t: SpanTable,
    messages: Sequence[Tuple[str, bool, int, int]],
    defined_reads: int,
    ops: int,
    counters: Dict[str, int],
) -> Dict[str, float]:
    """Every span- and counter-derived per-layer metric of one traced run.

    ``messages`` is the interceptor's log, one ``(kind, same node, deep
    bytes, interceptor ns)`` per routed message; ``defined_reads`` the
    ``DefVar.read`` calls that found the variable defined (counted, not
    timed); ``counters`` the deltas over the traced ops of the program's
    own counters (array-manager requests, coalescer, plan registry).
    """
    out: Dict[str, float] = {}

    # pcn
    out["pcn.processes_per_op"] = t.calls["pcn.process_start"] / ops
    out["pcn.process_start_us"] = t.mean_us("pcn.process_start")
    out["pcn.defvar_reads_per_op"] = (
        (t.calls["pcn.defvar_read"] + defined_reads) / ops
    )
    out["pcn.defvar_wait_ms_per_op"] = (
        t.total["pcn.defvar_read"] / 1e6 / ops
    )

    # vp
    out["vp.route_calls_per_op"] = t.calls["vp.route"] / ops
    by_kind: Dict[str, int] = defaultdict(int)
    same_node = 0
    deep = 0
    tap_ns = 0
    for kind, same, nbytes, spent in messages:
        by_kind[kind] += 1
        same_node += same
        deep += nbytes
        tap_ns += spent
    # Route self time: minus delivery (a child span) and minus what the
    # benchmark's own interceptor spent before forwarding.
    routes = t.calls["vp.route"]
    out["vp.route_us"] = (
        (t.self_ns["vp.route"] - tap_ns) / routes / 1e3 if routes else 0.0
    )
    for kind in MESSAGE_KINDS:
        out["vp.msgs_per_op." + kind] = by_kind[kind] / ops
    out["vp.same_node_share"] = same_node / len(messages) if messages else 0.0
    out["vp.deep_bytes_per_op"] = deep / ops
    out["vp.recv_calls_per_op"] = t.calls["vp.recv"] / ops
    out["vp.recv_wait_ms_per_op"] = t.total["vp.recv"] / 1e6 / ops
    out["vp.server_requests_per_op"] = t.calls["vp.server_request"] / ops
    out["vp.server_request_us"] = t.mean_us("vp.server_request")

    # arrays
    out["arrays.requests_per_op"] = counters["am_requests"] / ops
    for proc in ("create_array", "free_array", "read_element",
                 "write_element", "read_region", "write_region",
                 "find_local"):
        out["arrays.%s_us" % proc] = t.mean_us("arrays." + proc)
    array_self = sum(t.self_ns[name] for name in t.names("arrays."))
    array_self += sum(t.self_ns[name] for name in _ARRAY_DELIVERIES)
    out["arrays.self_ms_per_op"] = array_self / 1e6 / ops

    # perf
    out["perf.flushes_per_op"] = t.calls["perf.flush"] / ops
    out["perf.flush_us"] = t.mean_us("perf.flush")
    batches = counters["batches"]
    out["perf.writes_per_batch"] = (
        counters["batched_writes"] / batches if batches else 0.0
    )
    out["perf.lost_batches"] = float(counters["lost_batches"])
    out["perf.plan_compiles_per_op"] = counters["plan_compiles"] / ops
    lookups = counters["plan_hits"] + counters["plan_compiles"]
    out["perf.plan_hit_ratio"] = (
        counters["plan_hits"] / lookups if lookups else 0.0
    )
    out["perf.halo_prefetch_us"] = t.mean_us("perf.halo_prefetch")
    out["perf.halo_complete_wait_ms_per_op"] = (
        t.total["perf.halo_complete"] / 1e6 / ops
    )

    # calls
    out["calls.calls_per_op"] = t.calls["calls.distributed_call"] / ops
    out["calls.call_ms"] = t.mean_us("calls.distributed_call") / 1e3
    out["calls.do_all_self_ms"] = t.mean_self_us("calls.do_all") / 1e3
    out["calls.wrapper_self_us"] = t.mean_self_us("calls.wrapper")
    out["calls.combine_us"] = t.mean_us("calls.combine")
    out["calls.copy_skew_ms"] = _copy_skew_ms(t)

    # spmd: a collective called by another collective (allreduce = reduce
    # + bcast) is not counted twice.
    top_calls = 0
    top_ns = 0
    for _sid, parent, name, start, end, _op, _thread in t.spans:
        if name.startswith("spmd.coll.") and not t.name_of.get(
            parent, ""
        ).startswith("spmd.coll."):
            top_calls += 1
            top_ns += end - start
    out["spmd.collectives_per_op"] = top_calls / ops
    out["spmd.collective_ms_per_op"] = top_ns / 1e6 / ops
    out["spmd.allreduce_us"] = t.mean_us("spmd.coll.allreduce")
    out["spmd.allgather_us"] = t.mean_us("spmd.coll.allgather")
    programs = t.names("spmd.program:")
    out["spmd.kernel_self_ms_per_op"] = (
        sum(t.self_ns[name] for name in programs) / 1e6 / ops
    )
    fft = ("spmd.program:fft_reverse", "spmd.program:fft_natural")
    fft_calls = sum(t.calls.get(name, 0) for name in fft)
    out["spmd.fft_call_ms"] = (
        sum(t.total[name] for name in fft) / fft_calls / 1e6
        if fft_calls else 0.0
    )
    out["spmd.heat_steps_ms"] = t.mean_us("spmd.program:heat_steps") / 1e3

    # core
    for label, name in _STAGES.items():
        out["core.pipeline_stage_busy_ms." + label] = (
            t.total[name] / 1e6 / ops
        )
    out["core.exchange_ms"] = t.mean_us("core.exchange") / 1e3
    out["core.to_numpy_us"] = t.mean_us("core.to_numpy")
    out["core.from_numpy_us"] = t.mean_us("core.from_numpy")
    return out


SLICES_PER_BLOCK = 16
MIN_SLICE_OPS = 10


def slices(blocks: List[List[float]]) -> List[List[float]]:
    """Every block cut into up to 16 consecutive slices of >= 10 ops."""
    out = []
    for block in blocks:
        count = max(1, min(SLICES_PER_BLOCK, len(block) // MIN_SLICE_OPS))
        size = len(block) // count
        out.extend(block[k * size:(k + 1) * size] for k in range(count))
    return out


def summarize_latencies(blocks: List[List[float]]) -> Dict[str, Any]:
    """The two timing metrics and the pooled tail (latencies in seconds).

    The host runs at several speeds, a third apart, and stays at one for
    anything between half a second and minutes (README, The host's
    speeds); only the fastest that lasts is the program's own.  So the run
    is cut into slices of a quarter of a second or so and both timing
    metrics are read at the *quietest twentieth* of them: with 80 slices
    the fifth smallest slice median and the fifth largest slice rate.
    ``block_spread`` says how far the run's slices lay apart.
    """
    cut = slices(blocks)
    rank = len(cut) // 20
    medians = sorted(statistics.median(piece) for piece in cut)
    rates = sorted((len(piece) / sum(piece) for piece in cut), reverse=True)
    pooled = sorted(x for block in blocks for x in block)
    return {
        "op_p50_ms": medians[rank] * 1e3,
        "ops_per_s": rates[rank],
        "op_p95_ms": percentile(pooled, 0.95) * 1e3,
        "op_max_ms": pooled[-1] * 1e3,
        "block_spread": (statistics.median(medians) - medians[rank])
        / medians[rank],
        "samples": len(pooled),
        "slices": len(cut),
    }
