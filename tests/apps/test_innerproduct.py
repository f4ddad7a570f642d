"""The §6.1 inner-product example."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.apps import innerproduct
from repro.arrays.local_section import TRACKER
from repro.core.runtime import IntegratedRuntime


class TestExpectedValue:
    @pytest.mark.parametrize("m", [1, 4, 16, 100])
    def test_closed_form(self, m):
        direct = float(np.sum((np.arange(m) + 1.0) ** 2))
        assert innerproduct.expected_inner_product(m) == direct


class TestRun:
    @pytest.mark.parametrize("nodes,local_m", [(1, 4), (2, 4), (4, 4), (8, 2)])
    def test_matches_closed_form(self, nodes, local_m):
        rt = IntegratedRuntime(nodes)
        result = innerproduct.run(rt, local_m=local_m)
        assert result == innerproduct.expected_inner_product(nodes * local_m)

    def test_vectors_freed_after_run(self, rt4):
        live_before = TRACKER.live
        innerproduct.run(rt4, local_m=4)
        assert TRACKER.live == live_before

    def test_postcondition_vector_contents(self, rt4):
        """§6.1.3 postcondition: V1[i] == V2[i] == i+1.  Verified by
        driving test_iprdv directly on arrays we keep."""
        from repro.calls.params import Index, Reduce

        procs = rt4.all_processors()
        m = 8
        v1 = rt4.array("double", (m,), procs, ["block"])
        v2 = rt4.array("double", (m,), procs, ["block"])
        rt4.call(
            procs,
            innerproduct.test_iprdv,
            [procs, 4, Index(), m, 2, v1, v2, Reduce("double", 1, "max")],
        )
        for i in range(m):
            assert v1[i] == v2[i] == i + 1.0
        v1.free()
        v2.free()


class TestAtScale:
    def test_end_to_end_at_p64(self):
        """EX-6.1 whole at P = 64 — two vectors created, one distributed
        call, both freed — gives the closed form on the wire: 6(P - 1) =
        378 one-word messages, 48(P - 1) = 3,024 bytes, in under 5 s."""
        start = time.perf_counter()
        rt = IntegratedRuntime(64)
        rt.machine.reset_traffic()
        result = innerproduct.run(rt, local_m=4)
        assert result == innerproduct.expected_inner_product(64 * 4)
        assert rt.machine.traffic_snapshot() == {
            "messages": 378, "bytes": 3024,
        }
        assert time.perf_counter() - start < 5.0
