"""One measuring process: set-up, warm-up, five timed blocks, checks.

Run by ``run.py`` as ``python -m benchmarks.macro.child``; prints one JSON
record as its last line of standard output.  The closed loop has one
client: this thread issues the next operation when the previous one
returns, and the only other threads are the ones the runtime starts for
its eight virtual processors.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from typing import Any, Callable, Dict, List, Optional

BLOCKS = 5
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_to_last_cpu() -> bool:
    """Pin this process to the last CPU it may run on.

    Unpinned, the GIL-bound VP threads are spread over two cores at an
    arbitrary moment and ``ex61_calls`` jumps from 3.3 to 6.0 ms per op:
    the number then measures the scheduler, not the program.
    """
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        return False
    return True


def read_counters(rt: Any) -> Dict[str, int]:
    """The program's own counters, read at block boundaries."""
    from repro.perf import get_perf_layer

    traffic = rt.machine.traffic_snapshot()
    perf = get_perf_layer(rt.machine).diagnostics()
    return {
        "messages": traffic["messages"],
        "bytes": traffic["bytes"],
        "am_requests": sum(rt.array_manager.request_counts.values()),
        "batches": perf["coalescer"]["flushes"],
        "batched_writes": perf["coalescer"]["flushed_ops"],
        "lost_batches": perf["coalescer"]["lost_batches"],
        "plan_compiles": perf["comm_plans"]["compiled"],
        "plan_hits": perf["comm_plans"]["hits"],
    }


class Phase:
    """Result of one timed phase."""

    def __init__(self) -> None:
        self.blocks: List[List[float]] = []
        # Traced child only: an untraced twin of every traced block.
        self.untraced_twins: List[List[float]] = []
        self.counters: Dict[str, int] = {}
        self.failed = 0
        self.blocks_ok = True
        self.cpu_user = 0.0
        self.cpu_sys = 0.0
        self.wrappers_left = 0

    @property
    def measured(self) -> int:
        return sum(len(block) for block in self.blocks)

    @property
    def attempted(self) -> int:
        return self.measured + sum(len(b) for b in self.untraced_twins)


def run_ops(workload: Any, first: int, count: int, tracer: Any = None) -> tuple:
    """``count`` ops in a closed loop; returns (latencies, failures)."""
    clock = time.perf_counter
    latencies = []
    failed = 0
    for i in range(first, first + count):
        if tracer is not None:
            tracer.op = i
        start = clock()
        try:
            result = workload.run_op(i)
        except Exception:  # noqa: BLE001 - an op that raises is a failed op
            latencies.append(clock() - start)
            if not failed:
                traceback.print_exc(file=sys.stderr)
            failed += 1
            continue
        latencies.append(clock() - start)
        if not workload.ok(i, result):
            failed += 1
    return latencies, failed


def timed_phase(workload: Any, rt: Any, first: int, ops: int,
                tracer: Any = None) -> Phase:
    """Five blocks of ``ops // 5`` operations.

    With a tracer, every block is preceded by an untraced twin of the
    same size in the same process, and the tracer is installed for the
    traced block only: the host's speed wanders by a tenth over seconds,
    so the tracing overhead is a ratio of neighbours, not of two children.
    """
    phase = Phase()
    per_block = ops // BLOCKS
    for _block in range(BLOCKS):
        if tracer is not None:
            twin, failed = run_ops(workload, first, per_block)
            phase.untraced_twins.append(twin)
            phase.failed += failed
            first += per_block
            tracer.install(rt.machine)
            tracer.recording = True
        before = read_counters(rt)
        usage0 = resource.getrusage(resource.RUSAGE_SELF)
        try:
            latencies, failed = run_ops(workload, first, per_block, tracer)
        finally:
            if tracer is not None:
                phase.wrappers_left += tracer.uninstall()
        usage1 = resource.getrusage(resource.RUSAGE_SELF)
        after = read_counters(rt)
        first += per_block
        phase.blocks.append(latencies)
        phase.failed += failed
        phase.cpu_user += usage1.ru_utime - usage0.ru_utime
        phase.cpu_sys += usage1.ru_stime - usage0.ru_stime
        for key in after:
            phase.counters[key] = (
                phase.counters.get(key, 0) + after[key] - before[key]
            )
        # Checks that cost messages: outside the timers and the counters.
        phase.blocks_ok = workload.between_blocks() and phase.blocks_ok
    return phase


def median_ms(fn: Callable[[int], Any], first: int, count: int) -> float:
    samples = []
    for i in range(first, first + count):
        start = time.perf_counter()
        fn(i)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1e3


def extras(workload: Any, rt: Any, name: str, first: int, ops: int) -> Dict[str, float]:
    """Reference points measured after the timed phase of the untraced
    child, only when the per-layer metrics are wanted."""
    from repro.arrays.record import ArrayRecord

    gc.collect()
    out = {
        "arrays.records_alive_end": float(
            sum(isinstance(obj, ArrayRecord) for obj in gc.get_objects())
        ),
        "apps.serial_ref_ms": median_ms(workload.serial, first, 25),
        "core.pipeline_vs_sequential_x": 0.0,
        "obs.observe_overhead_x": 0.0,
    }
    count = max(5, ops // 20)
    if name == "ex62_pipeline":
        out["core.pipeline_vs_sequential_x"] = (
            median_ms(workload.run_op, first, count)
            / median_ms(workload.run_sequential, first, count)
        )
    if name == "ex61_calls":
        count = max(5, ops // 10)
        off = median_ms(workload.run_op, first, count)
        with rt.observe():
            on = median_ms(workload.run_op, first, count)
        out["obs.observe_overhead_x"] = on / off
    return out


def main(argv: Optional[List[str]] = None) -> int:
    entry = time.perf_counter()  # before numpy and repro are imported
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ops", type=int, required=True)
    parser.add_argument("--warmup", type=int, required=True)
    parser.add_argument("--mode", choices=("untraced", "traced", "setup"),
                        required=True)
    parser.add_argument("--extras", action="store_true")
    parser.add_argument("--trace-out")
    parser.add_argument("--inject-fault", action="store_true")
    args = parser.parse_args(argv)

    for name in THREAD_ENV:
        os.environ.setdefault(name, "1")
    pinned = pin_to_last_cpu()

    import numpy as np

    from repro.core.runtime import IntegratedRuntime

    from benchmarks.macro import analyze, workloads
    from benchmarks.macro.trace import Tracer

    rt = IntegratedRuntime(workloads.NODES)
    workload = workloads.WORKLOADS[args.workload](
        rt, np.random.default_rng(args.seed)
    )
    _latencies, warm_failed = run_ops(workload, 0, args.warmup)
    record: Dict[str, Any] = {
        "workload": args.workload,
        "mode": args.mode,
        "pinned": pinned,
        "setup_s": time.perf_counter() - entry,
        "failed": warm_failed,
    }
    if args.mode == "setup":
        print(json.dumps(record))
        return 0

    tracer = Tracer() if args.mode == "traced" else None
    phase = timed_phase(workload, rt, args.warmup, args.ops, tracer)
    if args.inject_fault:
        workload.corrupt()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    cpu = phase.cpu_user + phase.cpu_sys
    record.update(analyze.summarize_latencies(phase.blocks))
    record.update({
        "attempted": phase.attempted,
        "failed": warm_failed + phase.failed,
        "blocks_ok": phase.blocks_ok,
        "digest_ok": bool(workload.digest_ok()),
        "msgs_per_op": phase.counters["messages"] / phase.measured,
        "bytes_per_op": phase.counters["bytes"] / phase.measured,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_ms_per_op": cpu * 1e3 / phase.measured,
        "sys_cpu_share": phase.cpu_sys / cpu if cpu else 0.0,
    })
    if tracer is not None:
        record["wrappers_left"] = phase.wrappers_left
        record["trace_overhead_x"] = record["op_p50_ms"] / (
            analyze.summarize_latencies(phase.untraced_twins)["op_p50_ms"]
        )
        table = analyze.SpanTable(tracer.spans)
        record["layers"] = analyze.layer_metrics(
            table, tracer.messages, next(tracer.defined_reads),
            phase.measured, phase.counters,
        )
        record["span_counts"] = dict(table.calls)
        if args.trace_out:
            tracer.write_jsonl(args.trace_out)
    if args.extras:
        record["extras"] = extras(
            workload, rt, args.workload, args.warmup + phase.attempted,
            args.ops,
        )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
