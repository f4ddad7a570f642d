"""Self-test of the macro benchmark (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/macro -q

Runs every workload at 2 % of its operation count through the real
command, once, and checks the harness rather than the program: names and
units against BENCHMARK.json, counters that repeat, inputs that follow
the seed, wrappers that record and are removed, and a wrong result that
is caught.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from benchmarks.macro import run  # noqa: E402
from benchmarks.macro.analyze import MESSAGE_KINDS  # noqa: E402
from benchmarks.macro.trace import EXERCISED_BY, Tracer, deep_nbytes  # noqa: E402

SPEC = run.load_spec()
NAMES = list(run.OPS_PER_SECOND)
GATED = [w["name"] for w in SPEC["workloads"]]
SECONDS = 0.02 * SPEC["run_seconds"]


@pytest.fixture(scope="module")
def results():
    """Both metric sets of every workload at seed 0."""
    return {name: run.measure(name, 0, SECONDS, True, True) for name in NAMES}


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/macro"]
    assert 2 <= len(GATED) <= 8 and len(set(GATED)) == len(GATED)
    assert set(GATED) <= set(NAMES)
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(set(names + GATED)) == len(names) + len(GATED)
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])


@pytest.mark.parametrize("name", NAMES)
def test_every_named_metric_is_present_and_finite(results, name):
    result = results[name]
    run.check_names(SPEC, result)
    assert result.correct and result.failed == 0 and result.info["pinned"]
    assert result.end_to_end["ok_ratio"] == 1.0
    assert result.end_to_end["result_digest_ok"] == 1.0
    for trace in (0, 1):
        line = json.loads(run.final_line(SPEC, result, trace))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        section = SPEC["per_layer" if trace else "end_to_end"]
        assert list(line["metrics"]) == [m["name"] for m in section]
        for metric in section:
            entry = line["metrics"][metric["name"]]
            assert entry["unit"] == metric["unit"]
            assert math.isfinite(entry["value"])
    assert all(v > 0 for v in result.end_to_end.values())


@pytest.mark.parametrize("name", NAMES)
def test_message_kinds_add_up_to_the_untraced_count(results, name):
    """The interceptor exists only in the traced child, and installing it
    must not change what is sent."""
    result = results[name]
    by_kind = sum(
        result.per_layer["vp.msgs_per_op." + kind] for kind in MESSAGE_KINDS
    )
    assert by_kind == result.end_to_end["msgs_per_op"]
    assert result.info["traced_msgs_per_op"] == result.end_to_end["msgs_per_op"]
    assert (result.per_layer["vp.route_calls_per_op"]
            == result.end_to_end["msgs_per_op"])


def test_every_wrapped_callable_records_on_its_workload(results):
    """Catches a wrapper on a name that callers imported by value."""
    for span_name, workload in EXERCISED_BY.items():
        counts = results[workload].info["span_counts"]
        assert counts.get(span_name, 0) >= 1, (span_name, workload)


def test_counters_repeat_across_runs_and_seeds(results):
    """Same seed: the traced child is a second run of it.  Other seed:
    the seed draws cells and values, never which sections are touched."""
    for name in NAMES:
        ops, _traced_ops, warmup = run.op_counts(
            run.OPS_PER_SECOND[name], SECONDS
        )
        other = run.run_child(name, 1, ops, warmup, "untraced")
        for counter in ("msgs_per_op", "bytes_per_op"):
            expected = results[name].end_to_end[counter]
            assert results[name].info["traced_" + counter] == expected
            assert other[counter] == expected


def test_inputs_differ_between_seeds_and_repeat_within_one():
    from repro.core.runtime import IntegratedRuntime

    from benchmarks.macro.workloads import NODES, ArrayWrites

    rt = IntegratedRuntime(NODES)
    drawn = [
        ArrayWrites(rt, np.random.default_rng(seed)).inputs
        for seed in (0, 0, 1)
    ]
    assert repr(drawn[0]) == repr(drawn[1])
    assert repr(drawn[0]) != repr(drawn[2])


def test_wrappers_are_removed_when_tracing_ends():
    from repro.apps import innerproduct
    from repro.calls import api
    from repro.core import runtime
    from repro.pcn.defvar import DefVar

    rt = runtime.IntegratedRuntime(8)
    before = (runtime.distributed_call, api.do_all, DefVar.read)
    tracer = Tracer().install(rt.machine)
    # ``runtime`` holds distributed_call by value: it must be patched too.
    assert runtime.distributed_call is not before[0]
    tracer.recording = True
    innerproduct.run(rt)
    assert tracer.uninstall() == 0
    assert (runtime.distributed_call, api.do_all, DefVar.read) == before
    assert len(rt.machine.transport_stack) == 0
    assert any(span[2] == "calls.distributed_call" for span in tracer.spans)


def test_deep_bytes_sees_what_message_nbytes_misses():
    from repro.vp.message import Message

    block = np.zeros((64, 512))
    message = Message(source=0, dest=1, payload=(3, block))
    assert message.nbytes() == 16
    assert deep_nbytes(message.payload) == 8 + block.nbytes


def test_injected_wrong_result_flips_digest_and_exit_status(tmp_path):
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks/macro/run.py"),
         "--workload", "array_writes", "--seconds", str(SECONDS),
         "--trace", "0", "--inject-fault"],
        stdout=subprocess.PIPE, text=True, cwd=str(tmp_path),
    )
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert done.returncode != 0
    assert line["correct"] is False
    assert line["metrics"]["result_digest_ok"]["value"] == 0.0
