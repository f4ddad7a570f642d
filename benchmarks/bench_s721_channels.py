"""S-7.2.1 — direct communication between data-parallel programs (the
proposed extension).

Claims reproduced: routing stage-to-stage data through the task-parallel
caller "creates a bottleneck for problems in which there is a significant
amount of data to be exchanged"; direct channels remove it.  Measured both
as wall-clock and as PCN-level server-request counts (zero for the channel
route).
"""

from __future__ import annotations

import time

from benchmarks.conftest import report
from repro.calls import Index, Reduce
from repro.core.channels import Channel
from repro.core.runtime import IntegratedRuntime
from repro.pcn.composition import par
from repro.spmd import collectives

ITEMS = 8
CHUNK = 4096
TRANSFER_REQUESTS = (
    "read_region", "read_region_local", "write_region", "write_region_local",
)


def _expected_total(group_width: int) -> float:
    per_copy = CHUNK // group_width
    return float(
        sum(per_copy * (k + idx) for idx in range(group_width)
            for k in range(ITEMS))
    )


class TestS721Channels:
    def test_tp_route_vs_channel_route(self, benchmark):
        rt = IntegratedRuntime(8)
        ga, gb = rt.split_processors(2)
        a = rt.array("double", (CHUNK,), ga, ["block"])
        b = rt.array("double", (CHUNK,), gb, ["block"])

        def produce(ctx, step, sec):
            sec.interior()[:] = float(step) + ctx.index

        def consume(ctx, sec, out):
            out[0] = collectives.allreduce(
                ctx.comm, float(sec.interior().sum()), op="sum"
            )

        def tp_route():
            total = 0.0
            for step in range(ITEMS):
                rt.call(ga, produce, [step, a])
                b.from_numpy(a.to_numpy())  # the TP-level hop
                result = rt.call(gb, consume, [b, Reduce("double", 1, "max")])
                total += result.reductions[0]
            return total

        ch = Channel(rt.machine, ga, gb)

        def producer(ctx, index, sec):
            end = ch.end_a(ctx)
            for step in range(ITEMS):
                sec.interior()[:] = float(step) + index
                end.send(sec.interior().copy(), tag=step)

        def consumer(ctx, index, out):
            end = ch.end_b(ctx)
            total = 0.0
            for step in range(ITEMS):
                total += float(end.recv(tag=step).sum())
            out[0] = collectives.allreduce(ctx.comm, total, op="sum")

        def channel_route():
            results = par(
                lambda: rt.call(ga, producer, [Index(), a]),
                lambda: rt.call(
                    gb, consumer, [Index(), Reduce("double", 1, "max")]
                ),
            )
            return results[1].reductions[0]

        # Array-manager requests that move section data: a ``to_numpy`` is
        # one ``read_region`` fanned out as a ``read_region_local`` per
        # owner, a ``from_numpy`` the same in writes.
        counts = rt.array_manager.request_counts

        def transfers():
            return sum(counts.get(name, 0) for name in TRANSFER_REQUESTS)

        before = transfers()
        t0 = time.perf_counter()
        total_tp = tp_route()
        tp_time = time.perf_counter() - t0
        assert transfers() - before == ITEMS * ((1 + len(ga)) + (1 + len(gb)))

        total_ch = benchmark.pedantic(channel_route, rounds=3, iterations=1)
        t0 = time.perf_counter()
        channel_route()
        ch_time = time.perf_counter() - t0

        expected = _expected_total(4)
        assert total_tp == total_ch == expected

        # The channel route makes none at all.
        before = transfers()
        channel_route()
        assert transfers() == before

        report(
            "S-7.2.1 TP-level route vs direct channel "
            f"({ITEMS} items x {CHUNK} doubles)",
            [
                ("route", "seconds", "checksum"),
                ("through task-parallel level", f"{tp_time:.4f}",
                 f"{total_tp:.0f}"),
                ("direct DP<->DP channel", f"{ch_time:.4f}",
                 f"{total_ch:.0f}"),
            ],
        )
        # the extension must win when real data volume flows
        assert ch_time < tp_time
        a.free()
        b.free()

    def test_bottleneck_grows_with_volume(self, benchmark):
        """The TP route's disadvantage widens as the exchanged volume
        grows (it serialises every byte through one thread of control)."""
        rt = IntegratedRuntime(8)
        ga, gb = rt.split_processors(2)
        rows = [("chunk doubles", "TP seconds", "channel seconds")]
        ratios = {}
        repeats = 8
        for chunk in (1024, 262144):
            a = rt.array("double", (chunk,), ga, ["block"])
            b = rt.array("double", (chunk,), gb, ["block"])

            def fill(ctx, sec):
                sec.interior()[:] = 1.0

            def tp_route():
                for _ in range(repeats):
                    rt.call(ga, fill, [a])
                    b.from_numpy(a.to_numpy())

            ch = Channel(rt.machine, ga, gb)

            def producer(ctx, index, sec):
                end = ch.end_a(ctx)
                for _ in range(repeats):
                    end.send(sec.interior().copy())

            def consumer(ctx, index):
                end = ch.end_b(ctx)
                for _ in range(repeats):
                    end.recv()

            def channel_route():
                par(
                    lambda: rt.call(ga, producer, [Index(), a]),
                    lambda: rt.call(gb, consumer, [Index()]),
                )

            def best_of(fn, trials=3):
                best = float("inf")
                for _ in range(trials):
                    t0 = time.perf_counter()
                    fn()
                    best = min(best, time.perf_counter() - t0)
                return best

            tp_route()  # warm-up
            channel_route()
            tp = best_of(tp_route)
            chs = best_of(channel_route)
            ratios[chunk] = tp / chs
            rows.append((chunk, f"{tp:.4f}", f"{chs:.4f}"))
            a.free()
            b.free()
        report("S-7.2.1 bottleneck vs data volume", rows)
        benchmark.pedantic(lambda: None, rounds=1)
        # At 2 MiB per hop the TP route serialises every byte through one
        # thread of control; the channel route must win.
        assert ratios[262144] > 1.0
