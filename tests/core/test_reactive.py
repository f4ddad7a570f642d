"""Reactive computations / discrete-event graphs (§2.3.3)."""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.reactive import Event, ReactiveGraph


class TestEvents:
    def test_at_derives_time(self):
        e = Event(1.0, "kind", "payload")
        later = e.at(0.5)
        assert later.time == 1.5
        assert later.kind == "kind"
        assert later.payload == "payload"

    def test_at_overrides(self):
        e = Event(0.0, "a", 1)
        assert e.at(1.0, "b", 2) == Event(1.0, "b", 2)


class TestGraphConstruction:
    def test_duplicate_node_rejected(self):
        g = ReactiveGraph()
        g.add_node("x", lambda n, e: None)
        with pytest.raises(ValueError):
            g.add_node("x", lambda n, e: None)

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            ReactiveGraph().run([])

    def test_unknown_destination_raises(self):
        g = ReactiveGraph()
        g.add_node("only", lambda n, e: [("ghost", e)])
        with pytest.raises(KeyError):
            g.run([("only", Event(0, "go"))], timeout=5)


class TestEventFlow:
    def test_single_event_single_node(self):
        g = ReactiveGraph()
        node = g.add_node("sink", lambda n, e: None)
        result = g.run([("sink", Event(0.0, "hello"))])
        assert result.events_handled == 1
        assert node.handled == [(0.0, "hello")]

    def test_chain_propagation(self):
        g = ReactiveGraph()
        g.add_node("a", lambda n, e: [("b", e.at(1.0))])
        g.add_node("b", lambda n, e: [("c", e.at(1.0))])
        log = []
        g.add_node("c", lambda n, e: log.append(e.time))
        result = g.run([("a", Event(0.0, "go"))])
        assert result.events_handled == 3
        assert log == [2.0]

    def test_fanout(self):
        g = ReactiveGraph()
        g.add_node("src", lambda n, e: [("d1", e), ("d2", e), ("d2", e)])
        g.add_node("d1", lambda n, e: None)
        g.add_node("d2", lambda n, e: None)
        result = g.run([("src", Event(0.0, "x"))])
        assert result.per_node_counts == {"src": 1, "d1": 1, "d2": 2}

    def test_cyclic_graph_terminates_on_quiescence(self):
        """Irregular, data-dependent cascades (the point of task
        parallelism, §1.1.4) terminate when no handler emits."""
        g = ReactiveGraph()

        def bouncer(n, e):
            if e.payload > 0:
                return [("bouncer", e.at(1.0, payload=e.payload - 1))]

        g.add_node("bouncer", bouncer)
        result = g.run([("bouncer", Event(0.0, "bounce", 10))])
        assert result.events_handled == 11

    def test_local_time_advances_monotonically(self):
        g = ReactiveGraph()
        node = g.add_node("n", lambda n, e: None)
        g.run([
            ("n", Event(5.0, "later")),
            ("n", Event(1.0, "earlier")),
        ])
        assert node.local_time == 5.0

    def test_node_state_is_private_and_persistent(self):
        g = ReactiveGraph()

        def counter(n, e):
            n.state["count"] = n.state.get("count", 0) + 1

        node = g.add_node("c", counter)
        g.run([("c", Event(0, "x")), ("c", Event(1, "x")), ("c", Event(2, "x"))])
        assert node.state["count"] == 3

    def test_multiple_initial_events(self):
        g = ReactiveGraph()
        g.add_node("n", lambda n, e: None)
        result = g.run([("n", Event(0, "a")), ("n", Event(0, "b"))])
        assert result.events_handled == 2

    def test_timeout_on_livelock(self):
        # A timed-out run must stop its node processes itself: a leaked
        # one would record events (≈0.7 GB a minute) and hold its worker
        # thread for the rest of the pytest process.
        g = ReactiveGraph()
        g.add_node("loop", lambda n, e: [("loop", e.at(1.0))])
        with pytest.raises(TimeoutError):
            g.run([("loop", Event(0, "forever"))], timeout=0.3)

        def node_threads():
            return [
                t.name for t in threading.enumerate()
                if t.name.startswith("reactive-")
            ]

        deadline = time.monotonic() + 5.0
        while node_threads() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert node_threads() == []
        handled = len(g.nodes["loop"].handled)
        time.sleep(0.05)
        assert len(g.nodes["loop"].handled) == handled

    def test_handler_events_processed_in_fifo_order_per_node(self):
        g = ReactiveGraph()
        order = []
        g.add_node("sink", lambda n, e: order.append(e.payload))
        g.add_node(
            "src",
            lambda n, e: [("sink", e.at(0, payload=i)) for i in range(5)],
        )
        g.run([("src", Event(0, "go"))])
        assert order == [0, 1, 2, 3, 4]


class TestStrictTopology:
    def test_declared_edges_allow_flow(self):
        from repro.core.reactive import TopologyError

        g = ReactiveGraph()
        g.add_node("a", lambda n, e: [("b", e)])
        log = []
        g.add_node("b", lambda n, e: log.append(e.kind))
        g.connect("a", "b")
        g.run([("a", Event(0, "x"))])
        assert log == ["x"]

    def test_undeclared_edge_raises(self):
        from repro.core.reactive import TopologyError

        g = ReactiveGraph()
        g.add_node("a", lambda n, e: [("b", e)])
        g.add_node("b", lambda n, e: None)
        g.add_node("c", lambda n, e: None)
        g.connect("a", "c")  # strict now; a->b undeclared
        with pytest.raises(TopologyError):
            g.run([("a", Event(0, "x"))], timeout=5)

    def test_dynamic_graph_without_declared_edges(self):
        """No connect() calls: any destination remains legal (§2.3.3's
        mutable graphs)."""
        g = ReactiveGraph()
        g.add_node("a", lambda n, e: [("b", e)])
        log = []
        g.add_node("b", lambda n, e: log.append(1))
        result = g.run([("a", Event(0, "x"))])
        assert result.events_handled == 2

    def test_connect_unknown_node_rejected(self):
        g = ReactiveGraph()
        g.add_node("a", lambda n, e: None)
        with pytest.raises(KeyError):
            g.connect("a", "ghost")

    def test_initial_events_bypass_edge_check(self):
        """Injection is external stimulus, not an edge."""
        from repro.core.reactive import TopologyError

        g = ReactiveGraph()
        g.add_node("a", lambda n, e: None)
        g.add_node("b", lambda n, e: None)
        g.connect("a", "b")
        result = g.run([("b", Event(0, "external"))])
        assert result.events_handled == 1
