"""Interceptor-stack composition: fault injection, tracing, and metering
installed together on one machine's transport stack."""

from __future__ import annotations

import pytest

from repro.faults import FaultPlan, FaultyTransport
from repro.vp.fabric import TraceInterceptor, TrafficMeter, TransportStack
from repro.vp.machine import Machine
from tests.conftest import wait_until


@pytest.fixture
def m2():
    return Machine(2, default_recv_timeout=2.0)


def flood(machine, count, src=0, dst=1, tag="t"):
    for i in range(count):
        machine.send(src, dst, i, tag=tag)


class TestStackOrdering:
    def test_push_makes_top_layer(self, m2):
        a = TraceInterceptor(m2).install()
        b = TrafficMeter(m2).install()
        assert m2.transport_stack.layers() == [b, a]

    def test_remove_knits_stack_back_together(self, m2):
        a = TraceInterceptor(m2).install()
        b = TrafficMeter(m2).install()
        c = TraceInterceptor(m2).install()
        assert m2.transport_stack.remove(b)
        assert m2.transport_stack.layers() == [c, a]
        flood(m2, 3)
        assert len(a.spans()) == 3
        assert len(c.spans()) == 3
        assert b.messages == 0

    def test_remove_missing_returns_false(self, m2):
        assert not m2.transport_stack.remove(TrafficMeter(m2))

    def test_empty_stack_is_direct_delivery(self, m2):
        assert len(m2.transport_stack) == 0
        flood(m2, 2)
        assert m2.processor(1).mailbox.pending() == 2

    def test_uninstall_restores_previous_stack(self, m2):
        tracer = TraceInterceptor(m2).install()
        ft = FaultyTransport(m2, FaultPlan(seed=1, drop=1.0)).install()
        assert m2.transport_stack.layers() == [ft, tracer]
        ft.uninstall()
        assert m2.transport_stack.layers() == [tracer]
        flood(m2, 3)
        assert m2.processor(1).mailbox.pending() == 3
        assert len(tracer.spans()) == 3


class TestFaultsPlusTracing:
    def test_fault_injection_and_tracing_together(self, m2):
        """Both interceptors observe the same traffic simultaneously."""
        plan = FaultPlan(seed=4, drop=0.3)
        with TraceInterceptor(m2) as tracer:
            with FaultyTransport(m2, plan) as ft:
                flood(m2, 100)
        # The tracer sits *below* the dropper (installed first -> deeper),
        # so it records only surviving messages.
        assert 0 < ft.stats.dropped < 100
        assert len(tracer.spans()) == 100 - ft.stats.dropped
        assert m2.processor(1).mailbox.pending() == 100 - ft.stats.dropped

    def test_meter_position_determines_what_it_sees(self, m2):
        """A meter above the dropper counts all routed messages; one below
        counts only survivors."""
        below = TrafficMeter(m2).install()
        ft = FaultyTransport(m2, FaultPlan(seed=4, drop=0.3)).install()
        above = TrafficMeter(m2).install()
        flood(m2, 100)
        assert above.messages == 100
        assert below.messages == 100 - ft.stats.dropped
        assert below.messages < above.messages

    def test_fault_stats_unchanged_by_stacked_tracer(self):
        """Adding a tracer must not perturb the seeded fault decisions."""
        alone = Machine(2)
        with FaultyTransport(alone, FaultPlan(seed=4, drop=0.3)) as ft1:
            flood(alone, 100)

        stacked = Machine(2)
        with TraceInterceptor(stacked):
            with FaultyTransport(stacked, FaultPlan(seed=4, drop=0.3)) as ft2:
                flood(stacked, 100)
        assert ft2.stats.dropped == ft1.stats.dropped

    def test_duplicates_cross_lower_layers_twice(self, m2):
        tracer = TraceInterceptor(m2).install()
        with FaultyTransport(m2, FaultPlan(seed=2, duplicate=1.0)):
            flood(m2, 5)
        assert len(tracer.spans()) == 10
        assert m2.processor(1).mailbox.pending() == 10


class TestForwardFrom:
    def test_forward_from_skips_layers_above(self, m2):
        top = TrafficMeter(m2)
        bottom = TrafficMeter(m2)
        bottom.install()
        mid = TraceInterceptor(m2).install()
        top.install()
        from repro.vp.message import Message

        msg = Message(source=0, dest=1, payload="x", tag="t")
        m2.transport_stack.forward_from(mid, msg)
        assert top.messages == 0
        assert bottom.messages == 1
        assert m2.processor(1).mailbox.pending() == 1

    def test_forward_from_uninstalled_layer_reaches_terminal(self, m2):
        from repro.vp.message import Message

        stray = TraceInterceptor(m2)  # never installed
        meter = TrafficMeter(m2).install()
        msg = Message(source=0, dest=1, payload="x", tag="t")
        m2.transport_stack.forward_from(stray, msg)
        assert meter.messages == 0
        assert m2.processor(1).mailbox.pending() == 1

    def test_delayed_redelivery_crosses_meter_below(self, m2):
        """A FaultyTransport timer redelivery still flows through layers
        beneath it, resolved at release time."""
        meter = TrafficMeter(m2).install()
        plan = FaultPlan(seed=3, delay=1.0, delay_seconds=0.01)
        with FaultyTransport(m2, plan):
            flood(m2, 4)
            wait_until(
                lambda: m2.processor(1).mailbox.pending() == 4, timeout=2.0
            )
        assert m2.processor(1).mailbox.pending() == 4
        assert meter.messages == 4


class TestTransportStackUnit:
    def test_dispatch_and_terminal(self):
        delivered = []
        stack = TransportStack(delivered.append)

        def dropper(message, forward):
            if message != "drop-me":
                forward(message)

        stack.push(dropper)
        stack.dispatch("keep")
        stack.dispatch("drop-me")
        assert delivered == ["keep"]

    def test_contains_and_len(self):
        stack = TransportStack(lambda m: None)

        def layer(message, forward):
            forward(message)

        stack.push(layer)
        assert layer in stack
        assert len(stack) == 1
        stack.clear()
        assert layer not in stack
        assert len(stack) == 0
