"""Failure injection across the stack.

The thesis' library procedures define a Status protocol precisely so that
partial failures surface as values rather than hangs (§4.1.2).  These
tests inject failures at every layer — dying copies, missing arrays,
malformed parameters, forgotten status assignments, crashing stage bodies,
poisoned reactive handlers — and check that the failure is contained,
reported, and leaves the rest of the system usable.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arrays import am_user, am_util
from repro.arrays.local_section import TRACKER
from repro.arrays.record import ArrayID
from repro.calls import Index, Local, Reduce, StatusVar, distributed_call
from repro.core.pipeline import Pipeline, Stage
from repro.core.reactive import Event, ReactiveGraph
from repro.core.runtime import IntegratedRuntime
from repro.status import Status
from repro.vp.machine import Machine


@pytest.fixture
def m4():
    machine = Machine(4)
    am_util.load_all(machine)
    return machine


def procs(machine):
    return am_util.node_array(0, 1, machine.num_nodes)


class TestDistributedCallFailures:
    def test_one_dying_copy_reports_error_others_complete(self, m4):
        completed = []

        def flaky(ctx, index):
            if index == 1:
                raise RuntimeError("copy 1 crashed")
            completed.append(index)

        result = distributed_call(m4, procs(m4), flaky, [Index()])
        assert result.status is Status.ERROR
        assert sorted(completed) == [0, 2, 3]

    def test_all_copies_dying_still_returns(self, m4):
        def doomed(ctx):
            raise ValueError("everyone dies")

        result = distributed_call(m4, procs(m4), doomed, [])
        assert result.status is Status.ERROR

    def test_failed_copy_reductions_dropped_healthy_kept(self, m4):
        """A crashed copy contributes no reduction value; the merge keeps
        the healthy copies' fold and the error status."""

        def half_crash(ctx, index, out):
            if index >= 2:
                raise RuntimeError("late copies crash")
            out[0] = float(index + 1)

        result = distributed_call(
            m4, procs(m4), half_crash, [Index(), Reduce("double", 1, "sum")]
        )
        assert result.status is Status.ERROR
        assert result.reductions[0] == 3.0  # 1 + 2 from the survivors

    def test_machine_usable_after_failed_call(self, m4):
        def doomed(ctx):
            raise RuntimeError("boom")

        distributed_call(m4, procs(m4), doomed, [])
        ok = distributed_call(m4, procs(m4), lambda ctx: None, [])
        assert ok.status is Status.OK

    def test_array_intact_after_failing_writer(self, m4):
        aid, _ = am_user.create_array(m4, "double", (8,), procs(m4), ["block"])
        am_user.write_element(m4, aid, (0,), 42.0)

        def crash_before_write(ctx, sec):
            raise RuntimeError("died before touching data")

        result = distributed_call(
            m4, procs(m4), crash_before_write, [Local(aid)]
        )
        assert result.status is Status.ERROR
        assert am_user.read_element(m4, aid, (0,))[0] == 42.0

    def test_call_on_freed_array_invalid(self, m4):
        aid, _ = am_user.create_array(m4, "double", (8,), procs(m4), ["block"])
        am_user.free_array(m4, aid)
        result = distributed_call(
            m4, procs(m4), lambda ctx, sec: None, [Local(aid)]
        )
        assert result.status is Status.INVALID

    def test_status_forgotten_on_one_copy_only(self, m4):
        def mostly_diligent(ctx, index, status):
            if index != 2:
                status.set(0)

        result = distributed_call(
            m4, procs(m4), mostly_diligent, [Index(), StatusVar()]
        )
        assert result.status is Status.ERROR  # copy 2's omission surfaces

    def test_failed_call_does_not_leak_sections(self, m4):
        aid, _ = am_user.create_array(m4, "double", (8,), procs(m4), ["block"])
        live_before = TRACKER.live

        def doomed(ctx, sec):
            raise RuntimeError("x")

        distributed_call(m4, procs(m4), doomed, [Local(aid)])
        assert TRACKER.live == live_before
        am_user.free_array(m4, aid)


class TestArrayManagerFailures:
    def test_operations_on_unknown_arrays_all_not_found(self, m4):
        ghost = ArrayID(0, 12345)
        assert am_user.read_element(m4, ghost, (0,))[1] is Status.NOT_FOUND
        assert am_user.write_element(m4, ghost, (0,), 1.0) is Status.NOT_FOUND
        assert am_user.find_info(m4, ghost, "type")[1] is Status.NOT_FOUND
        assert am_user.free_array(m4, ghost) is Status.NOT_FOUND
        assert (
            am_user.verify_array(m4, ghost, 1, [], "row") is Status.NOT_FOUND
        )

    def test_failed_create_leaves_no_partial_state(self, m4):
        live_before = TRACKER.live
        _aid, st = am_user.create_array(
            m4, "double", (7,), procs(m4), ["block"]  # 4 does not divide 7
        )
        assert st is Status.INVALID
        assert TRACKER.live == live_before

    def test_borders_provider_raising_is_invalid(self, m4):
        def bad_provider(parm, rank):
            return [1]  # wrong length

        _aid, st = am_user.create_array(
            m4, "double", (8,), procs(m4), ["block"],
            border_info=("foreign_borders", bad_provider, 1),
        )
        assert st is Status.INVALID


class TestPipelineFailures:
    def test_stage_exception_propagates_and_stops(self):
        def bad(item):
            if item == 3:
                raise RuntimeError("stage choked on item 3")
            return item

        pipe = Pipeline([Stage("ok", lambda x: x), Stage("bad", bad)])
        with pytest.raises(RuntimeError, match="item 3"):
            pipe.run(range(6), timeout=5)


class TestReactiveFailures:
    def test_handler_exception_propagates(self):
        graph = ReactiveGraph()

        def buggy(node, event):
            raise KeyError("handler bug")

        graph.add_node("bad", buggy)
        with pytest.raises(KeyError, match="handler bug"):
            graph.run([("bad", Event(0, "go"))], timeout=5)

    def test_failure_in_one_node_does_not_hang_others(self):
        graph = ReactiveGraph()
        processed = []

        def bad(node, event):
            raise RuntimeError("bad node")

        graph.add_node("bad", bad)
        graph.add_node("good", lambda n, e: processed.append(e.kind))
        with pytest.raises(RuntimeError):
            graph.run(
                [("bad", Event(0, "x")), ("good", Event(0, "y"))], timeout=5
            )
        assert processed == ["y"]


class TestRuntimeLayerFailures:
    def test_call_failure_surfaces_through_core_layer(self):
        rt = IntegratedRuntime(4)

        def doomed(ctx):
            raise RuntimeError("model exploded")

        result = rt.call(rt.all_processors(), doomed, [])
        assert result.status is Status.ERROR

    def test_freed_array_rejected_at_handle_level(self):
        rt = IntegratedRuntime(4)
        arr = rt.array("double", (8,), distrib=["block"])
        arr.free()
        from repro.status import ArrayNotFoundError

        with pytest.raises(ArrayNotFoundError):
            arr.to_numpy()
        with pytest.raises(ArrayNotFoundError):
            arr.from_numpy(np.zeros(8))
