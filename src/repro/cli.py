"""Command-line interface: ``python -m repro``.

The thesis' Appendix B documents the operational workflow around the
prototype (compile, link, start the array manager, run).  The analogue for
a Python library is a small CLI that lets a user exercise the system
without writing code:

* ``python -m repro info`` — version, layers, machine defaults;
* ``python -m repro demo <name>`` — run one of the thesis' example
  applications (inner product, polymul, climate, reactor, animation,
  aeroelastic, signal);
* ``python -m repro trace <name>`` — same, with the array manager's debug
  trace (the ``am_debug`` variant of §B.3) summarised afterwards, a span
  profile of the run, and an optional Chrome trace (``--chrome-trace``)
  from the observability layer.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Optional

import numpy as np


def _demo_innerproduct(rt) -> str:
    from repro.apps import innerproduct

    value = innerproduct.run(rt, local_m=4)
    expected = innerproduct.expected_inner_product(rt.num_nodes * 4)
    return f"inner product = {value:g} (expected {expected:g})"


def _demo_polymul(rt) -> str:
    from repro.apps import polymul

    pm = polymul.PolynomialMultiplier(rt, n=16)
    pairs = polymul.random_pairs(16, 4, seed=0)
    result = pm.multiply_stream(pairs)
    ok = all(
        np.allclose(o, polymul.polymul_reference(*p), atol=1e-9)
        for o, p in zip(result.outputs, pairs)
    )
    pm.free()
    return (
        f"multiplied {len(pairs)} polynomial pairs through the pipeline; "
        f"all correct: {ok}; overlap {result.overlap_intervals():.3f}s"
    )


def _demo_climate(rt) -> str:
    from repro.apps.climate import ClimateSimulation

    sim = ClimateSimulation(rt, shape=(8, 16))
    run = sim.run(6)
    sim.free()
    return f"coupled 6 steps; interface gap now {run.interface_gap():.3f}"


def _demo_reactor(rt) -> str:
    from repro.apps.reactor import ReactorSimulation

    sim = ReactorSimulation(rt)
    trace = sim.run(max_ticks=10)
    sim.free()
    temps = ", ".join(f"{t:.0f}" for t in trace.temperatures)
    return f"reactor cooled over {trace.demands} ticks: {temps}"


def _demo_animation(rt) -> str:
    from repro.apps import animation

    result = animation.render_animation(
        rt, frames=4, groups=2, shape=(16, 16), max_iter=20
    )
    return (
        f"rendered {len(result.frames)} frames; jobs per group "
        f"{result.farm_result.jobs_per_group}"
    )


def _demo_aeroelastic(rt) -> str:
    from repro.apps.aeroelastic import AeroelasticSimulation

    sim = AeroelasticSimulation(rt, span_points=16)
    result = sim.run(max_iterations=40)
    sim.free()
    return (
        f"aeroelastic fixed point after {result.iterations} iterations "
        f"(converged: {result.converged})"
    )


def _demo_signal(rt) -> str:
    from repro.apps.signalproc import SpectralProcessor

    proc = SpectralProcessor(rt, 32, kind="correlate")
    rng = np.random.default_rng(1)
    x = rng.uniform(-1, 1, 32)
    lags = proc.process_one(x, np.roll(x, 9))
    proc.free()
    return f"correlation detected shift {int(np.argmax(lags))} (true 9)"


DEMOS: dict[str, Callable] = {
    "innerproduct": _demo_innerproduct,
    "polymul": _demo_polymul,
    "climate": _demo_climate,
    "reactor": _demo_reactor,
    "animation": _demo_animation,
    "aeroelastic": _demo_aeroelastic,
    "signal": _demo_signal,
}

_DEMO_MIN_NODES = {name: 8 for name in DEMOS}
_DEMO_MIN_NODES["innerproduct"] = 1


def cmd_info(args: argparse.Namespace) -> int:
    import repro

    print(f"repro {repro.__version__} — reproduction of Caltech CS-TR-93-01")
    print("layers: pcn / vp / arrays / calls / spmd / core / apps")
    print(f"demos: {', '.join(sorted(DEMOS))}")
    return 0


def cmd_demo(args: argparse.Namespace, trace: bool = False) -> int:
    from repro.core.runtime import IntegratedRuntime

    name = args.name
    if name not in DEMOS:
        print(
            f"unknown demo {name!r}; choose from {', '.join(sorted(DEMOS))}",
            file=sys.stderr,
        )
        return 2
    nodes = args.nodes
    if nodes % 8 != 0 and _DEMO_MIN_NODES[name] == 8:
        print(
            f"demo {name!r} needs a multiple of 8 nodes; got {nodes}",
            file=sys.stderr,
        )
        return 2
    rt = IntegratedRuntime(nodes, trace_arrays=trace)
    observer = rt.observe() if trace else None
    print(f"[{name}] running on {nodes} virtual processors ...")
    print(f"[{name}] {DEMOS[name](rt)}")
    if trace:
        counts = rt.array_manager.request_counts
        print(f"[{name}] array-manager requests:")
        for request_type in sorted(counts):
            print(f"    {request_type:24s} {counts[request_type]}")
    if observer is not None:
        print(f"[{name}] span profile (slowest phases first):")
        for span_name, count, total in observer.span_summary()[:12]:
            print(f"    {span_name:28s} {count:6d} calls  {total:8.4f}s")
        if args.chrome_trace:
            observer.export_chrome_trace(args.chrome_trace)
            print(f"[{name}] chrome trace written to {args.chrome_trace}")
        observer.close()
    return 0


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Integrating Task and Data Parallelism — reproduction "
        "of Caltech CS-TR-93-01 (Massingill, 1993)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="show version and available demos")

    for command, trace in (("demo", False), ("trace", True)):
        p = sub.add_parser(
            command,
            help=(
                "run an example application"
                + (" with array-manager tracing" if trace else "")
            ),
        )
        p.add_argument("name", help=f"one of: {', '.join(sorted(DEMOS))}")
        p.add_argument(
            "--nodes", type=int, default=8,
            help="number of virtual processors (default 8)",
        )
        if trace:
            p.add_argument(
                "--chrome-trace", metavar="PATH", default=None,
                help="write a Chrome/Perfetto trace-event JSON file",
            )

    args = parser.parse_args(argv)
    if args.command == "info":
        return cmd_info(args)
    return cmd_demo(args, trace=args.command == "trace")


if __name__ == "__main__":
    raise SystemExit(main())
