"""The simulated multicomputer: processors, routing, placement."""

from __future__ import annotations

import threading

import pytest

from repro.vp.machine import Machine


class TestTopology:
    def test_num_nodes(self):
        assert Machine(6).num_nodes == 6

    def test_zero_nodes_rejected(self):
        with pytest.raises(ValueError):
            Machine(0)

    def test_processor_lookup(self):
        m = Machine(4)
        assert m.processor(2).number == 2

    def test_processor_out_of_range(self):
        m = Machine(4)
        with pytest.raises(ValueError):
            m.processor(4)

    def test_negative_processor_out_of_range(self):
        """List indexing would wrap -1 onto processor 3."""
        m = Machine(4)
        with pytest.raises(ValueError, match=r"out of range 0\.\.3"):
            m.processor(-1)

    @pytest.mark.parametrize("source,dest", [(0, -1), (-1, 0), (0, 4)])
    def test_send_outside_the_machine_routes_nothing(self, source, dest):
        m = Machine(4)
        with pytest.raises(ValueError, match="out of range"):
            m.send(source, dest, "x")
        assert m.routed_count == 0
        assert [node.mailbox.pending() for node in m.processors()] == [0] * 4

    def test_processors_listing(self):
        m = Machine(3)
        assert [p.number for p in m.processors()] == [0, 1, 2]


class TestAddProcessor:
    def test_newcomer_fails_fast_on_peers_that_were_already_dead(self):
        """§4.1.2: a receive that names a dead source raises at once — on
        a processor added after the death as on one that saw it."""
        from repro.status import ProcessorFailedError

        m = Machine(3, default_recv_timeout=2.0)
        m.fail(2)
        new = m.add_processor()
        for vp in (0, new):
            with pytest.raises(ProcessorFailedError):
                m.processor(vp).mailbox.recv(source=2, timeout=0.5)
        m.revive(2)
        m.send(source=2, dest=new, payload="back")
        assert m.processor(new).mailbox.recv(source=2).payload == "back"


class TestRouting:
    def test_send_delivers_to_dest_mailbox(self):
        m = Machine(4)
        m.send(source=0, dest=3, payload="hello", tag="t")
        got = m.processor(3).mailbox.recv(tag="t")
        assert got.payload == "hello"
        assert got.source == 0

    def test_self_send(self):
        m = Machine(2)
        m.send(source=1, dest=1, payload="me")
        assert m.processor(1).mailbox.recv().payload == "me"

    def test_send_to_invalid_dest(self):
        m = Machine(2)
        with pytest.raises(ValueError):
            m.send(source=0, dest=9, payload=None)

    def test_traffic_accounting(self):
        m = Machine(2)
        m.reset_traffic()
        m.send(source=0, dest=1, payload=b"x" * 100)
        m.send(source=1, dest=0, payload=b"y" * 50)
        snap = m.traffic_snapshot()
        assert snap["messages"] == 2
        assert snap["bytes"] == 150

    def test_reset_traffic_clears_node_counters(self):
        m = Machine(2)
        m.send(source=0, dest=1, payload="x")
        m.processor(1).mailbox.recv()
        m.reset_traffic()
        assert m.traffic_snapshot() == {"messages": 0, "bytes": 0}


class TestAddressSpaces:
    def test_heaps_are_distinct(self):
        """Each virtual processor has a distinct address space."""
        m = Machine(3)
        m.processor(0).store("key", "zero")
        m.processor(1).store("key", "one")
        assert m.processor(0).load("key") == "zero"
        assert m.processor(1).load("key") == "one"
        assert not m.processor(2).has("key")

    def test_heap_delete(self):
        m = Machine(1)
        node = m.processor(0)
        node.store("k", 1)
        node.delete("k")
        assert not node.has("k")
        assert node.load_default("k", "fallback") == "fallback"


class TestPlacement:
    def test_run_on_executes_on_processor(self):
        m = Machine(4)
        result = m.run_on(2, lambda: threading.current_thread().name)
        assert "vp2" in result

    def test_spawn_tracks_live_processes(self):
        m = Machine(1)
        node = m.processor(0)
        ev = threading.Event()
        node.spawn(ev.wait)
        assert node.live_process_count() >= 1
        ev.set()

    def test_processes_on_same_node_share_its_heap(self):
        m = Machine(2)
        node = m.processor(1)
        node.run(lambda: node.store("written-by", "process"))
        assert node.load("written-by") == "process"


class TestLockFreeReads:
    """What every message reads without the machine lock — the failed
    set, the kind-handler table, the capability table — is replaced whole
    on a write, so a write is seen by the very next message."""

    def test_fail_is_seen_by_the_very_next_route(self):
        from repro.status import ProcessorFailedError
        from repro.vp.message import Message

        m = Machine(3)
        m.route(Message(source=0, dest=1, payload="before"))
        m.fail(1)
        with pytest.raises(ProcessorFailedError):
            m.route(Message(source=0, dest=1, payload="to the dead"))
        with pytest.raises(ProcessorFailedError):
            m.route(Message(source=1, dest=2, payload="from the dead"))
        m.revive(1)
        m.route(Message(source=1, dest=2, payload="after"))
        assert m.processor(2).mailbox.recv(timeout=5).payload == "after"

    def test_route_from_an_unknown_source_is_rejected(self):
        from repro.vp.message import Message

        m = Machine(2)
        with pytest.raises(ValueError):
            m.route(Message(source=7, dest=1, payload=None))
        assert m.traffic_snapshot()["messages"] == 0

    def test_handlers_registered_while_routing_serve_the_next_message(self):
        """A router hammers the machine while kinds and capabilities are
        registered one by one; each is used straight after it registers."""
        from repro.pcn.defvar import DefVar
        from repro.vp.message import Message

        m = Machine(4)
        stop = threading.Event()
        failures = []

        def hammer():
            try:
                while not stop.is_set():
                    m.route(Message(source=0, dest=1, payload=None))
                    m.processor(1).mailbox.recv(timeout=5)
            except BaseException as exc:  # noqa: BLE001 - reported below
                failures.append(exc)

        routers = [threading.Thread(target=hammer) for _ in range(2)]
        for t in routers:
            t.start()
        try:
            for i in range(200):
                seen = []
                m.register_kind_handler(f"kind-{i}", seen.append)
                m.route(Message(source=2, dest=3, payload=i, kind=f"kind-{i}"))
                assert [msg.payload for msg in seen] == [i]

                def capability(node, out, i=i):
                    out.define((node.number, i))

                m.server.load({f"cap-{i}": capability})
                out = DefVar(f"out-{i}")
                m.server.request(f"cap-{i}", out, processor=3, source=2)
                assert out.read(timeout=5) == (3, i)
                assert m.server.provides(f"cap-{i}")
        finally:
            stop.set()
            for t in routers:
                t.join(timeout=10)
        assert not failures
        assert not any(t.is_alive() for t in routers)
        # The hammering never unregistered the built-in kind.
        assert "server_request" in m._kind_handlers


class TestSendCounters:
    def test_send_side_counters_are_exact_under_concurrent_senders(self):
        """8 threads x 2,000 sends: the message and byte totals advance
        under one lock, so neither loses an update."""
        import sys

        m = Machine(8)
        sends = 2000

        def sender(vp):
            other = (vp + 1) % 8
            for i in range(sends):
                # Sizes differ per message so a lost byte update shows.
                m.send(source=vp, dest=other if i % 2 else vp,
                       payload=b"x" * (i % 7))

        saved = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=sender, args=(vp,))
                       for vp in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(saved)
        assert not any(t.is_alive() for t in threads)
        snap = m.traffic_snapshot()
        assert snap["messages"] == 8 * sends
        assert snap["bytes"] == 8 * sum(i % 7 for i in range(sends))
