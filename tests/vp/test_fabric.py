"""The fabric envelope: trace ids and hop counts stamped by Machine.route
and propagated through spawns and server-request hops."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.pcn.defvar import DefVar
from repro.vp import fabric
from repro.vp.fabric import TraceInterceptor
from repro.vp.machine import Machine
from repro.vp.message import Message


class TestExecutionContext:
    def test_top_level_thread_has_no_context(self):
        assert fabric.current_processor() is None
        trace, hop = fabric.current_trace()
        assert trace is None
        assert hop == 0

    def test_context_scopes_and_restores(self):
        with fabric.execution_context(processor=3, trace_id="t-x", hop=2):
            assert fabric.current_processor() == 3
            assert fabric.current_trace() == ("t-x", 2)
            with fabric.execution_context(trace_id="t-y"):
                # Unset fields inherit from the enclosing scope.
                assert fabric.current_processor() == 3
                assert fabric.current_trace() == ("t-y", 2)
            assert fabric.current_trace() == ("t-x", 2)
        assert fabric.current_processor() is None

    def test_spawned_process_runs_under_its_processor(self):
        m = Machine(2)
        seen = DefVar("seen")
        m.processor(1).spawn(lambda: seen.define(fabric.current_processor()))
        assert seen.read(timeout=5.0) == 1

    def test_spawn_inherits_trace(self):
        m = Machine(2)
        seen = DefVar("seen")
        with fabric.execution_context(trace_id="t-parent", hop=4):
            m.processor(0).spawn(lambda: seen.define(fabric.current_trace()))
        assert seen.read(timeout=5.0) == ("t-parent", 4)

    def test_trace_ids_are_unique(self):
        assert fabric.new_trace_id() != fabric.new_trace_id()

    @pytest.mark.parametrize(
        "override, inner",
        [({"hop": 9}, (5, "t-outer", 9, "s-outer")),
         ({"span_id": "s-in"}, (5, "t-outer", 2, "s-in"))],
    )
    def test_single_field_override_inherits_the_other_three(
        self, override, inner
    ):
        outer = (5, "t-outer", 2, "s-outer")
        with fabric.execution_context(*outer):
            with fabric.execution_context(**override):
                assert fabric.snapshot_context() == inner
            assert fabric.snapshot_context() == outer
        assert fabric.snapshot_context() == (None, None, 0, None)


class TestEnvelopeStamping:
    def test_route_stamps_fresh_trace_on_unscoped_send(self):
        m = Machine(2)
        tracer = TraceInterceptor(m).install()
        m.send(0, 1, "a", tag="t")
        m.send(0, 1, "b", tag="t")
        spans = tracer.spans()
        assert all(s["trace"] is not None for s in spans)
        assert spans[0]["trace"] != spans[1]["trace"]  # unrelated sends

    def test_route_preserves_ambient_trace(self):
        m = Machine(2)
        tracer = TraceInterceptor(m).install()
        with fabric.execution_context(trace_id="t-op", hop=7):
            m.send(0, 1, "a", tag="t")
        (span,) = tracer.spans()
        assert span["trace"] == "t-op"
        assert span["hop"] == 7
        assert span["kind"] == "user"

    def test_received_message_carries_envelope(self):
        m = Machine(2)
        with fabric.execution_context(trace_id="t-env"):
            m.send(0, 1, "payload", tag="t")
        msg = m.processor(1).mailbox.recv(tag="t", timeout=2.0)
        assert msg.trace_id == "t-env"
        assert msg.hop == 0


class TestServerHops:
    def test_cross_processor_request_is_one_traced_message(self):
        m = Machine(3)
        hits = []
        m.server.load({"mark": lambda node, st: (hits.append(node.number),
                                                 st.define("ok"))})
        tracer = TraceInterceptor(m).install()
        st = DefVar("st")
        m.server.request("mark", st, processor=2, source=0)
        assert st.read(timeout=5.0) == "ok"
        assert hits == [2]
        (span,) = tracer.spans()
        assert span["kind"] == "server_request"
        assert span["source"] == 0
        assert span["dest"] == 2

    def test_nested_requests_share_trace_and_count_hops(self):
        m = Machine(3)

        def relay(node, depth, done):
            if depth == 0:
                done.define(node.number)
                return
            m.server.request(
                "relay", depth - 1, done, processor=node.number + 1
            )

        m.server.load({"relay": relay})
        tracer = TraceInterceptor(m).install()
        done = DefVar("done")
        # Runs locally on node 0 (no origin), then hops 0->1->2.
        m.server.request("relay", 2, done, processor=0)
        assert done.read(timeout=5.0) == 2
        spans = tracer.spans()
        assert len(spans) == 2
        assert spans[0]["trace"] == spans[1]["trace"]
        assert [s["hop"] for s in spans] == [0, 1]
        assert [(s["source"], s["dest"]) for s in spans] == [(0, 1), (1, 2)]

    def test_same_node_request_costs_no_message(self):
        m = Machine(2)
        m.server.load({"noop": lambda node, st: st.define("ok")})
        m.reset_traffic()
        st = DefVar("st")
        m.server.request("noop", st, processor=1, source=1)
        assert st.read(timeout=5.0) == "ok"
        assert m.traffic_snapshot()["messages"] == 0

    def test_request_error_propagates_across_hop(self):
        m = Machine(2)

        def boom(node):
            raise RuntimeError("handler exploded")

        m.server.load({"boom": boom})
        with pytest.raises(RuntimeError, match="handler exploded"):
            m.server.request("boom", processor=1, source=0)

    def test_async_cross_request_returns_process(self):
        m = Machine(2)
        done = DefVar("done")
        m.server.load({"slow": lambda node, out: out.define(node.number)})
        proc = m.server.request(
            "slow", done, processor=1, source=0, synchronous=False
        )
        proc.join(timeout=5.0)
        assert done.read(timeout=5.0) == 1


class TestContextEdgeCases:
    def test_nested_context_restores_after_exception(self):
        """An exception unwinding nested scopes restores each level."""
        with fabric.execution_context(processor=1, trace_id="t-outer", hop=1):
            with pytest.raises(RuntimeError):
                with fabric.execution_context(trace_id="t-inner", hop=9):
                    assert fabric.current_trace() == ("t-inner", 9)
                    raise RuntimeError("unwind")
            assert fabric.current_trace() == ("t-outer", 1)
            assert fabric.current_processor() == 1
        assert fabric.current_trace() == (None, 0)
        assert fabric.current_processor() is None

    def test_snapshot_context_captures_all_fields(self):
        with fabric.execution_context(
            processor=2, trace_id="t-snap", hop=3, span_id="s-9"
        ):
            assert fabric.snapshot_context() == (2, "t-snap", 3, "s-9")
        assert fabric.snapshot_context() == (None, None, 0, None)

    def test_snapshot_context_propagates_through_do_all(self):
        """Every do_all copy inherits the caller's trace and span via the
        context snapshot taken at spawn time."""
        from repro.calls.do_all import do_all

        m = Machine(3)
        seen = {}

        def copy(index, parms, status):
            seen[index] = (fabric.current_trace()[0], fabric.current_span_id())
            status.define(index)

        with fabric.execution_context(trace_id="t-call", span_id="s-call"):
            do_all(m, [0, 1, 2], copy, None, lambda a, b: a + b, timeout=5.0)
        assert set(seen) == {0, 1, 2}
        assert all(trace == "t-call" for trace, _ in seen.values())
        assert all(span == "s-call" for _, span in seen.values())

    def test_forward_from_after_interceptor_removed(self):
        """An interceptor holding a message on a timer may be uninstalled
        before re-injection; forward_from must still deliver (directly to
        final delivery), not drop or loop."""
        m = Machine(2)
        held = []

        def holder(message, forward):
            held.append(message)  # hold, do not forward yet

        meter = fabric.TrafficMeter(m).install()
        m.transport_stack.push(holder)  # holder above meter
        m.send(0, 1, "deferred", tag="t")
        assert held and meter.snapshot()["messages"] == 0
        m.transport_stack.remove(holder)
        m.transport_stack.forward_from(holder, held[0])
        msg = m.processor(1).mailbox.recv(tag="t", timeout=2.0)
        assert msg.payload == "deferred"
        # Removed interceptor bypasses the remaining stack entirely.
        assert meter.snapshot()["messages"] == 0
        meter.uninstall()

    def test_forward_from_uses_layers_below_when_installed(self):
        m = Machine(2)
        held = []

        def holder(message, forward):
            held.append(message)

        meter = fabric.TrafficMeter()
        m.transport_stack.push(meter)  # bottom
        m.transport_stack.push(holder)  # top
        m.send(0, 1, "deferred", tag="t")
        m.transport_stack.forward_from(holder, held[0])
        assert m.processor(1).mailbox.recv(tag="t", timeout=2.0).payload == "deferred"
        # Still installed: re-injection crosses the meter beneath it.
        assert meter.snapshot()["messages"] == 1
        m.transport_stack.remove(holder)
        m.transport_stack.remove(meter)


class TestComposedOnce:
    """The interceptor chain is composed when the stack changes; routing
    a message composes nothing."""

    @staticmethod
    def recorder(name, log):
        def layer(message, forward):
            log.append(name)
            forward(message)

        return layer

    @pytest.mark.parametrize("depth", [0, 1, 2])
    def test_dispatch_composes_nothing(self, monkeypatch, depth):
        m = Machine(2)
        log = []
        for i in range(depth):
            m.transport_stack.push(self.recorder(i, log))
        composed = []
        chain = fabric.TransportStack._chain

        def counting(stack, layers):
            composed.append(layers)
            return chain(stack, layers)

        monkeypatch.setattr(fabric.TransportStack, "_chain", counting)
        for n in range(10):
            m.send(0, 1, n, tag="t")
        assert [m.processor(1).mailbox.recv(tag="t", timeout=2.0).payload
                for _ in range(10)] == list(range(10))
        assert composed == []
        assert len(log) == 10 * depth

    def test_next_message_reaches_exactly_the_installed_layers(self):
        m = Machine(2)
        log = []
        a, b = self.recorder("a", log), self.recorder("b", log)

        def sent():
            del log[:]
            m.send(0, 1, "x", tag="t")
            m.processor(1).mailbox.recv(tag="t", timeout=2.0)
            return list(log)

        assert sent() == []
        m.transport_stack.push(a)
        assert sent() == ["a"]
        m.transport_stack.push(b)
        assert sent() == ["b", "a"]
        assert m.transport_stack.remove(a)
        assert sent() == ["b"]
        assert not m.transport_stack.remove(a)
        assert sent() == ["b"]
        m.transport_stack.push(a)
        m.transport_stack.clear()
        assert sent() == []

    def test_concurrent_mutation_leaves_chain_and_layers_in_step(self):
        """Eight threads push, route through and remove their own layer
        while the others do the same, then each leaves one layer installed.
        A chain composed from a stale stack would let a message sent
        between a push and its remove miss the layer, drop a kept layer
        or keep a removed one."""
        m = Machine(2)
        log = []
        rounds, workers = 100, 8
        crossed = [0] * workers  # entry i: only thread i's sends touch it
        start = threading.Barrier(workers)

        def churn(i):
            def mine(message, forward):
                if message.payload[0] == i:
                    crossed[i] += 1
                forward(message)

            start.wait(timeout=30.0)
            for n in range(rounds):
                m.transport_stack.push(mine)
                m.send(0, 1, (i, n), tag="t")
                m.transport_stack.remove(mine)
            m.transport_stack.push(self.recorder(("kept", i), log))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=churn, args=(i,))
                       for i in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert crossed == [rounds] * workers
        mailbox = m.processor(1).mailbox
        for _ in range(rounds * workers):
            mailbox.recv(tag="t", timeout=2.0)
        del log[:]
        m.send(0, 1, "last", tag="t")
        assert mailbox.recv(tag="t", timeout=2.0).payload == "last"
        assert sorted(log) == [("kept", i) for i in range(workers)]
        assert len(m.transport_stack) == workers


class TestEnvelopeRegressions:
    def test_traces_never_contains_none(self):
        """Regression: every routed message gets a trace id — ambient or
        freshly stamped by Machine.route — so traces() has no None entry."""
        m = Machine(3)
        tracer = TraceInterceptor(m).install()
        m.send(0, 1, "bare", tag="t")  # unscoped: route must stamp
        with fabric.execution_context(trace_id="t-amb"):
            m.send(1, 2, "scoped", tag="t")
        st = DefVar("st")
        m.server.load({"noop": lambda node, out: out.define("ok")})
        m.server.request("noop", st, processor=2, source=0)
        assert st.read(timeout=5.0) == "ok"
        assert None not in tracer.traces()
        assert all(s["trace"] is not None for s in tracer.spans())

    def test_route_stamps_ambient_span_id(self):
        """Messages routed inside an observability span carry its span id,
        stitching message traces onto the causal span tree."""
        m = Machine(2)
        tracer = TraceInterceptor(m).install()
        with m.observe() as observer:
            with observer.span("op") as handle:
                m.send(0, 1, "x", tag="t")
        (span,) = tracer.spans()
        assert span["span"] == handle.span_id


class TestDistributedCallTrace:
    def test_one_call_one_trace(self):
        """Every message of one distributed call shares its trace id."""
        from repro.arrays import am_util
        from repro.calls import Index, Reduce, distributed_call
        from repro.spmd import collectives

        m = Machine(4)
        am_util.load_all(m)
        procs = am_util.node_array(0, 1, 4)
        tracer = TraceInterceptor(m).install()

        def program(ctx, index, out):
            out[0] = collectives.allreduce(ctx.comm, float(index), op="sum")

        result = distributed_call(
            m, procs, program, [Index(), Reduce("double", 1, "sum")]
        )
        assert result.reductions[0] == 4 * 6.0  # folded sum of allreduce
        dp_spans = [s for s in tracer.spans() if s["group"] is not None]
        assert dp_spans, "the collective must have produced group traffic"
        traces = {s["trace"] for s in dp_spans}
        assert len(traces) == 1
        assert next(iter(traces)).startswith("dcall")


class TestOneEnvelopePerMessage:
    """A message is stamped where it is built: ``Machine.route`` hands the
    interceptors the very object the sender constructed."""

    @pytest.fixture
    def built(self, monkeypatch):
        """Every ``Message`` that ``Machine.send`` or ``Machine.route``
        constructs (``dataclasses.replace`` goes through the class too)."""
        from repro.vp import machine as machine_module

        built = []

        class Recorded(Message):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(machine_module, "Message", Recorded)
        return built

    @staticmethod
    def seen_on(machine):
        seen = []

        def interceptor(message, forward):
            seen.append(message)
            forward(message)

        machine.transport_stack.push(interceptor)
        return seen

    def test_send_builds_the_envelope_route_would_stamp(self, built):
        m = Machine(2)
        seen = self.seen_on(m)
        with m.observe() as observer, observer.span("op"):
            with fabric.execution_context(trace_id="t-op", hop=3):
                m.send(0, 1, "built", tag="t")
                unstamped = Message(source=0, dest=1, payload="bare", tag="t")
                m.route(unstamped)
        sent, bare = seen
        assert [sent] == built and sent is built[0]
        # Only a bare message from a direct caller is copied, keeping seq.
        assert bare is not unstamped and bare.seq == unstamped.seq
        assert (sent.trace_id, sent.hop) == ("t-op", 3)
        assert sent.span_id is not None
        assert (sent.trace_id, sent.hop, sent.span_id) == (
            bare.trace_id, bare.hop, bare.span_id,
        )

    def test_top_level_send_gets_exactly_one_root_id(self, built):
        m = Machine(2)
        seen = self.seen_on(m)
        before = fabric.new_trace_id()
        m.send(0, 1, "x", tag="t")
        after = fabric.new_trace_id()
        (message,) = seen
        assert message is built[0] and len(built) == 1
        number = lambda trace: int(trace.split("-")[1])  # noqa: E731
        assert number(message.trace_id) == number(before) + 1
        assert number(after) == number(before) + 2  # no id burnt on a copy

    def test_same_node_fast_path_stays_unstamped(self, built):
        m = Machine(2)
        m.send(1, 1, "self", tag="t")
        message = m.processor(1).mailbox.recv(tag="t", timeout=2.0)
        assert message is built[0] and message.trace_id is None

    def test_every_in_tree_sender_routes_the_object_it_built(self, built):
        """A remote server request, an array batch, its replica update and
        a halo strip: one construction per routed message, no copy.  The
        copies build and route on their own threads, so routing order
        need not be build order: the two are compared as sets of
        objects."""
        import numpy as np

        from repro.arrays import am_user, am_util
        from repro.calls import Local, Reduce, distributed_call
        from repro.core.darray import DistributedArray
        from repro.spmd.stencil import heat_steps

        m = Machine(4, default_recv_timeout=10)
        am_util.load_all(m)
        arr = DistributedArray.create(
            m, "double", (8, 8), [0, 1, 2, 3],
            [("block", 2), ("block", 2)], borders=[1] * 4, replication=1,
        )
        arr.from_numpy(np.ones((8, 8)))
        seen = self.seen_on(m)
        del built[:]
        arr[7, 7] = 5.0  # section 3: a routed batch, then its mirror
        assert am_user.flush_writes(m) == 1
        assert arr[7, 7] == 5.0  # processor 0 asks the owner: one request
        result = distributed_call(
            m, [0, 1, 2, 3], heat_steps,
            [2, 2, 1, Local(arr.array_id), Reduce("double", 1, "max")],
        )
        assert result.status.name == "OK"
        kinds = {message.kind for message in seen}
        assert {"server_request", "array_batch", "replica_update",
                "halo_bulk", "user"} <= kinds
        assert len(seen) == len(built)
        assert sorted(map(id, seen)) == sorted(map(id, built))
        assert all(message.trace_id is not None for message in seen)
