"""The repo's benchmark: one command, every metric by name and unit.

    python3 benchmarks/macro/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace 0|1] [--check-agreement]

(or ``PYTHONPATH=src python -m benchmarks.macro.run``).  Without
``--workload`` it runs all six; without ``--trace`` it reports both the
end-to-end metrics (untraced) and the per-layer metrics (traced).  With a
workload and a trace mode it ends with one JSON line for the driver
described in BENCHMARK.json, which gates four of the six workloads.
Every workload runs in child processes of its own (``child.py``); this
process only starts them and does arithmetic.

``--seconds`` does not set a duration.  It scales a *fixed operation
count* (``ops_per_second`` of the workload x seconds): the runtime keeps
state per array ever created, so "run for S seconds" would hand a faster
commit a different workload than its parent.  The counts are sized so the
timed phase takes about S seconds on the 2-core box this was written on.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent.parent
if __package__ in (None, ""):
    # Run as a script: make ``benchmarks.macro`` and ``repro`` importable.
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from benchmarks.macro.child import BLOCKS, THREAD_ENV  # noqa: E402

TRACED_SHARE = 5  # the traced run repeats a fifth of the operations
SETUPS = 4  # set-ups per end-to-end run; setup_s is the quickest
WARMUP_SECONDS = 0.5  # the warm-up never exceeds this much of the rate
CHILD_TIMEOUT_S = 170
# A bound this small means "a count that must repeat exactly".
EXACT_BOUND = 0.001
# The frozen operation counts, per second of ``--seconds``: about one
# second of work each, pinned, on the box the benchmark was sized on.
OPS_PER_SECOND = {
    "ex61_calls": 300,
    "ex62_pipeline": 30,
    "climate_halo": 200,
    "array_writes": 600,
    "array_reads": 360,
    "matmul_kernel": 70,
}


def load_spec() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def op_counts(rate: int, seconds: float) -> Tuple[int, int, int]:
    """(untraced ops, traced ops, warm-up ops); the first two are whole
    multiples of the blocks, the warm-up is a tenth of the ops but at
    most half a second of them, so that set-up stays set-up."""
    ops = max(BLOCKS, int(rate * seconds) // BLOCKS * BLOCKS)
    traced = max(BLOCKS, ops // TRACED_SHARE // BLOCKS * BLOCKS)
    warmup = max(1, min(ops // 10, int(rate * WARMUP_SECONDS)))
    return ops, traced, warmup


def run_child(workload: str, seed: int, ops: int, warmup: int, mode: str,
              *flags: str) -> Dict[str, Any]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env.update({name: "1" for name in THREAD_ENV})
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.macro.child",
         "--workload", workload, "--seed", str(seed), "--ops", str(ops),
         "--warmup", str(warmup), "--mode", mode, *flags],
        cwd=str(ROOT), env=env, stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0 or not done.stdout.strip():
        raise SystemExit(
            f"{workload}: {mode} child exited with {done.returncode}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


class Result:
    """What one workload produced: metric values plus bookkeeping."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.end_to_end: Dict[str, float] = {}
        self.per_layer: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.info: Dict[str, Any] = {}

    def absorb(self, record: Dict[str, Any]) -> None:
        self.attempted += record.get("attempted", 0)
        self.failed += record["failed"]
        self.correct = (
            self.correct and record["failed"] == 0
            and record.get("blocks_ok", True) and record.get("digest_ok", True)
        )


def measure(workload: str, seed: int, seconds: float, end_to_end: bool,
            per_layer: bool, trace_out: Optional[str] = None,
            inject_fault: bool = False) -> Result:
    ops, traced_ops, warmup = op_counts(OPS_PER_SECOND[workload], seconds)
    result = Result(workload)
    flags = ["--extras"] if per_layer else []
    if inject_fault:
        flags.append("--inject-fault")
    plain = run_child(workload, seed, ops, warmup, "untraced", *flags)
    result.absorb(plain)
    result.info = {"ops": ops, "pinned": plain["pinned"], "seed": seed}

    if end_to_end:
        setups = [plain["setup_s"]]
        for _ in range(SETUPS - 1):
            extra = run_child(workload, seed, ops, warmup, "setup")
            result.absorb(extra)
            setups.append(extra["setup_s"])
        # Quickest, not median: see analyze.summarize_latencies.
        result.end_to_end = {"setup_s": min(setups)}
        for name in ("op_p50_ms", "ops_per_s", "msgs_per_op",
                     "bytes_per_op", "peak_rss_mb"):
            result.end_to_end[name] = plain[name]
        result.end_to_end["ok_ratio"] = 1.0 - result.failed / result.attempted
        result.end_to_end["result_digest_ok"] = float(
            plain["digest_ok"] and plain["blocks_ok"]
        )

    if per_layer:
        flags = ["--trace-out", trace_out] if trace_out else []
        traced = run_child(
            workload, seed, traced_ops, warmup, "traced", *flags
        )
        result.absorb(traced)
        result.correct = result.correct and traced["wrappers_left"] == 0
        result.info["traced_ops"] = traced_ops
        result.info["span_counts"] = traced["span_counts"]
        result.info["traced_msgs_per_op"] = traced["msgs_per_op"]
        result.info["traced_bytes_per_op"] = traced["bytes_per_op"]
        layers = dict(traced["layers"])
        layers.update(plain["extras"])
        for name in ("op_p95_ms", "op_max_ms", "cpu_ms_per_op",
                     "sys_cpu_share", "block_spread"):
            layers["apps." + name] = plain[name]
        layers["obs.trace_overhead_x"] = traced["trace_overhead_x"]
        result.per_layer = layers
    result.info["block_spread"] = plain["block_spread"]
    return result


def check_names(spec: Dict[str, Any], result: Result) -> None:
    """The metrics produced are exactly the ones BENCHMARK.json names."""
    for section, values in (("end_to_end", result.end_to_end),
                            ("per_layer", result.per_layer)):
        if not values:
            continue
        named = {metric["name"] for metric in spec[section]}
        if named != set(values):
            raise SystemExit(
                f"{section} metrics differ from BENCHMARK.json: "
                f"{sorted(named ^ set(values))}"
            )
        bad = [name for name, v in values.items() if not math.isfinite(v)]
        if bad:
            raise SystemExit(f"non-finite metrics: {bad}")


def print_result(spec: Dict[str, Any], result: Result) -> None:
    info = result.info
    print(
        f"== {result.workload}  seed={info['seed']} ops={info['ops']}"
        f" traced_ops={info.get('traced_ops', 0)} pinned={info['pinned']}"
        f" correct={result.correct} attempted={result.attempted}"
        f" failed={result.failed}"
    )
    for section, values in (("end_to_end", result.end_to_end),
                            ("per_layer", result.per_layer)):
        for metric in spec[section]:
            name = metric["name"]
            if name not in values:
                continue
            if name == "setup_s":
                samples = SETUPS
            elif section == "end_to_end" or name.startswith(("apps.", "obs.")):
                samples = info["ops"]  # from the untraced child
            else:
                samples = info["traced_ops"]
            print(
                f"  {name:42s} {values[name]:>16.6f} {metric['unit']:8s}"
                f" n={samples}"
            )


def final_line(spec: Dict[str, Any], result: Result, trace: int) -> str:
    section = "per_layer" if trace else "end_to_end"
    values = result.per_layer if trace else result.end_to_end
    return json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            metric["name"]: {
                "value": values[metric["name"]], "unit": metric["unit"],
            }
            for metric in spec[section]
        },
    })


def check_agreement(spec: Dict[str, Any], names: List[str], seed: int,
                    seconds: float) -> bool:
    """Two full sets of end-to-end runs, back to back, must agree within
    the bounds BENCHMARK.json fixes (counts exactly)."""
    runs = [
        {name: measure(name, seed, seconds, True, False) for name in names}
        for _ in range(2)
    ]
    agreed = True
    for name in names:
        first, second = runs[0][name], runs[1][name]
        print(
            f"== {name}  block_spread run1={first.info['block_spread']:.4f}"
            f" run2={second.info['block_spread']:.4f}"
        )
        agreed = agreed and first.correct and second.correct
        for metric in spec["end_to_end"]:
            v1 = first.end_to_end[metric["name"]]
            v2 = second.end_to_end[metric["name"]]
            if metric["bound"] <= EXACT_BOUND:
                ok = v1 == v2
            else:
                ok = abs(v2 - v1) <= metric["bound"] * abs(v1)
            agreed = agreed and ok
            print(
                f"  {metric['name']:20s} {v1:>16.6f} {v2:>16.6f}"
                f" {metric['unit']:6s} bound={metric['bound']:<6}"
                f" {'ok' if ok else 'DISAGREE'}"
            )
    print("agreement:", "ok" if agreed else "FAILED")
    return agreed


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    names = list(OPS_PER_SECOND)  # BENCHMARK.json gates four of them
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--check-agreement", action="store_true")
    parser.add_argument("--trace-out", help="write the traced spans here")
    parser.add_argument("--inject-fault", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"no program to measure: {ROOT / 'src' / 'repro'}")
    selected = [args.workload] if args.workload else names
    if args.trace_out:
        args.trace_out = os.path.abspath(args.trace_out)  # children run in ROOT
    if args.check_agreement:
        return 0 if check_agreement(
            spec, selected, args.seed, args.seconds
        ) else 1

    correct = True
    for name in selected:
        result = measure(
            name, args.seed, args.seconds,
            end_to_end=args.trace != 1, per_layer=args.trace != 0,
            trace_out=args.trace_out, inject_fault=args.inject_fault,
        )
        check_names(spec, result)
        print_result(spec, result)
        correct = correct and result.correct
    if args.workload and args.trace is not None:
        print(final_line(spec, result, args.trace))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
