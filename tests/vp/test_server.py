"""The PCN server mechanism (§5.1.1)."""

from __future__ import annotations

import threading

import pytest

from repro.pcn.defvar import DefVar, Tally
from repro.status import ProcessorFailedError
from repro.vp import fabric
from repro.vp.machine import Machine
from repro.vp.server import ServerRequestError


class TestCapabilities:
    def test_unknown_request_type_raises(self):
        m = Machine(2)
        with pytest.raises(ServerRequestError):
            m.server.request("no_such_capability")

    def test_load_adds_capabilities(self):
        m = Machine(2)
        log = []
        m.server.load({"ping": lambda node: log.append(node.number)})
        assert m.server.provides("ping")
        m.server.request("ping")
        assert log == [0]

    def test_later_load_overrides(self):
        m = Machine(1)
        m.server.load({"cap": lambda node: "v1"})
        results = []
        m.server.load({"cap": lambda node: results.append("v2")})
        m.server.request("cap")
        assert results == ["v2"]


class TestRouting:
    def test_processor_annotation_routes_request(self):
        """The @Processor_number annotation executes the request on the
        named node (§5.1.1)."""
        m = Machine(4)
        seen = []
        m.server.load({"where": lambda node: seen.append(node.number)})
        m.server.request("where", processor=3)
        m.server.request("where", processor=1)
        assert seen == [3, 1]

    def test_bidirectional_communication_via_defvar(self):
        """A request parameter that is an undefined definitional variable
        is defined by the server program — the §5.1.1 Status pattern."""
        m = Machine(2)

        def handler(node, out_var):
            out_var.define(f"answered-on-{node.number}")

        m.server.load({"ask": handler})
        out = DefVar("answer")
        m.server.request("ask", out, processor=1)
        assert out.read() == "answered-on-1"

    def test_asynchronous_request_completes_immediately(self):
        """Raw server-request semantics: the statement completes at once;
        the caller synchronises on a variable the handler defines
        (§5.1.2's motivation for the library procedures)."""
        m = Machine(1)
        gate = threading.Event()
        done = DefVar("done")

        def handler(node, done_var):
            gate.wait(timeout=5)
            done_var.define(True)

        m.server.load({"slow": handler})
        m.server.request("slow", done, synchronous=False)
        assert not done.data()  # returned before the handler finished
        gate.set()
        assert done.read() is True

    def test_synchronous_request_waits(self):
        m = Machine(1)
        log = []

        def handler(node):
            log.append("ran")

        m.server.load({"now": handler})
        m.server.request("now", synchronous=True)
        assert log == ["ran"]


def status_tally(parts):
    """The combined answer of a fan-out over ``parts`` holders: the worst
    code, as the array manager folds it."""
    return Tally(parts, max, 0, "status")


def on_processor(number):
    """Place the calling thread on ``number`` for a ``with`` block (None:
    leave it unplaced, a top-level thread)."""
    return fabric.execution_context(processor=number)


class TestRequestEach:
    """A fan-out is one request (``ServerRegistry.request_each``)."""

    @pytest.fixture
    def m8(self):
        return Machine(8, default_recv_timeout=2.0)

    @staticmethod
    def holders(machine):
        return dict.fromkeys(range(machine.num_nodes), ())

    def test_every_holder_is_served_once_on_its_own_node(self, m8):
        served = []

        def handler(node, common, status):
            served.append((node.number, fabric.current_processor(), common))
            status.define(0)

        m8.server.load({"ask": handler})
        status = status_tally(8)
        with on_processor(2):
            m8.server.request_each("ask", self.holders(m8), ("c",), status)
        assert served == [(p, p, "c") for p in range(8)]
        assert status.read(timeout=0) == 0
        # One routed message per remote holder; the origin is served in place.
        assert m8.routed_count == 7

    def test_own_parameters_follow_the_common_ones_status_last(self, m8):
        got = {}

        def handler(node, *parameters):
            got[node.number] = parameters[:-1]
            parameters[-1].define(0)

        m8.server.load({"ask": handler})
        status = status_tally(3)
        shares = {1: ("one", 1), 4: (), 6: ("six",)}
        m8.server.request_each("ask", shares, ("a", "b"), status)
        assert got == {
            1: ("a", "b", "one", 1), 4: ("a", "b"), 6: ("a", "b", "six"),
        }

    def test_status_is_the_fold_of_every_answer(self, m8):
        m8.server.load(
            {"ask": lambda node, status: status.define(node.number % 3)}
        )
        status = status_tally(8)
        m8.server.request_each("ask", self.holders(m8), (), status)
        assert status.read(timeout=0) == 2

    def test_no_holders_is_already_answered(self, m8):
        m8.server.load({"ask": lambda node, status: status.define(1)})
        status = status_tally(0)
        m8.server.request_each("ask", {}, (), status)
        assert status.read(timeout=0) == 0

    def test_unknown_request_type_raises_before_anyone_is_asked(self, m8):
        with pytest.raises(ServerRequestError):
            m8.server.request_each(
                "nope", self.holders(m8), (), status_tally(8)
            )
        assert m8.routed_count == 0

    def test_unplaced_caller_sends_no_message(self, m8):
        """§5.1.1: a top-level thread is "on" whichever node it asks."""
        where = []

        def handler(node, status):
            where.append(fabric.current_processor())
            status.define(0)

        m8.server.load({"ask": handler})
        m8.server.request_each("ask", self.holders(m8), (), status_tally(8))
        assert where == list(range(8))
        assert m8.routed_count == 0

    def test_a_raising_handler_does_not_stop_the_rest(self, m8):
        """All eight are asked; the first error is re-raised afterwards."""
        asked = []

        def handler(node, status):
            asked.append(node.number)
            if node.number in (3, 6):
                raise RuntimeError(f"boom on {node.number}")
            status.define(0)

        m8.server.load({"ask": handler})
        for origin in (None, 0, 3):
            asked.clear()
            with on_processor(origin), pytest.raises(
                RuntimeError, match="boom on 3"
            ):
                m8.server.request_each(
                    "ask", self.holders(m8), (), status_tally(8)
                )
            assert asked == list(range(8))

    def test_dead_holder_raises_unless_skipped(self, m8):
        asked = []

        def handler(node, status):
            asked.append(node.number)
            status.define(0)

        m8.server.load({"ask": handler})
        m8.fail(5)
        with on_processor(0), pytest.raises(ProcessorFailedError):
            m8.server.request_each(
                "ask", self.holders(m8), (), status_tally(8)
            )
        asked.clear()
        status = status_tally(8)
        with on_processor(0):
            m8.server.request_each(
                "ask", self.holders(m8), (), status, skip_failed=True
            )
        assert asked == [0, 1, 2, 3, 4, 6, 7]
        assert status.read(timeout=0) == 0  # defined without holder 5

    def test_skip_failed_covers_a_death_between_check_and_route(
        self, m8, monkeypatch
    ):
        asked = []

        def handler(node, status):
            asked.append(node.number)
            status.define(0)

        m8.server.load({"ask": handler})
        check_alive = m8.check_alive

        def check_then_die(processors):
            check_alive(processors)
            if 4 in processors:
                m8.fail(4)  # alive when checked, dead when routed to

        monkeypatch.setattr(m8, "check_alive", check_then_die)
        status = status_tally(8)
        with on_processor(0):
            m8.server.request_each(
                "ask", self.holders(m8), (), status, skip_failed=True
            )
        assert asked == [0, 1, 2, 3, 5, 6, 7]
        assert status.read(timeout=0) == 0

    def test_all_hops_are_sent_before_the_first_is_waited_for(self, m8):
        """With asynchronous delivery the hops are in flight together."""
        held = []
        all_sent = threading.Event()

        def hold(message, forward):
            held.append(message)
            if len(held) == 7:
                all_sent.set()

        m8.transport_stack.push(hold)
        served = []

        def handler(node, status):
            served.append(node.number)
            status.define(0)

        m8.server.load({"ask": handler})
        status = status_tally(8)

        def caller():
            with on_processor(0):
                m8.server.request_each("ask", self.holders(m8), (), status)

        thread = threading.Thread(target=caller)
        thread.start()
        assert all_sent.wait(timeout=5)
        assert served == [0] and not status.data()
        for message in reversed(held):  # any order of arrival will do
            m8.transport_stack.forward_from(hold, message)
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert served == [0, 7, 6, 5, 4, 3, 2, 1]
        assert status.read(timeout=0) == 0

    def test_a_lost_hop_is_a_timeout_not_a_hang(self):
        m = Machine(4, default_recv_timeout=0.05)
        m.transport_stack.push(
            lambda message, forward: None if message.dest == 2
            else forward(message)
        )
        m.server.load({"ask": lambda node, status: status.define(0)})
        with on_processor(0), pytest.raises(TimeoutError):
            m.server.request_each(
                "ask", dict.fromkeys(range(4), ()), (), status_tally(4)
            )

    def test_a_duplicated_hop_is_served_once(self, m8):
        m8.transport_stack.push(
            lambda message, forward: (forward(message), forward(message))
        )
        served = []

        def handler(node, status):
            served.append(node.number)
            status.define(0)

        m8.server.load({"ask": handler})
        status = status_tally(8)
        with on_processor(0):
            m8.server.request_each("ask", self.holders(m8), (), status)
            m8.server.request("ask", status_tally(1), processor=1)
            proc = m8.server.request(
                "ask", status_tally(1), processor=2, synchronous=False
            )
        proc.join(timeout=5)
        assert sorted(served) == [0, 1, 1, 2, 2, 3, 4, 5, 6, 7]

    def test_hops_of_one_fan_out_share_one_trace(self, m8):
        tracer = fabric.TraceInterceptor(m8).install()
        m8.server.load({"ask": lambda node, status: status.define(0)})
        with on_processor(0):
            m8.server.request_each(
                "ask", self.holders(m8), (), status_tally(8)
            )
            m8.server.request_each(
                "ask", self.holders(m8), (), status_tally(8)
            )
            with fabric.execution_context(trace_id="ambient", hop=2):
                m8.server.request_each(
                    "ask", self.holders(m8), (), status_tally(8)
                )
        first, second, third = tracer.traces()
        assert first != second and third == "ambient"
        for trace in (first, second, third):
            spans = tracer.spans_for(trace)
            assert [s["dest"] for s in spans] == [1, 2, 3, 4, 5, 6, 7]
            assert {s["kind"] for s in spans} == {"server_request"}
        assert {s["hop"] for s in tracer.spans_for("ambient")} == {2}


class TestTheFrameIsRestored:
    """A served request swaps the thread's frame for its handler's and
    puts it back — whatever the handler does, raising included."""

    @pytest.fixture
    def m4(self):
        m = Machine(4, default_recv_timeout=2.0)
        seen = []

        def boom(node, *parameters):
            seen.append(fabric.snapshot_context())
            raise RuntimeError(f"boom on {node.number}")

        m.server.load({"boom": boom})
        m.seen = seen
        return m

    @staticmethod
    def raises_and_restores(ask):
        before = fabric.snapshot_context()
        with pytest.raises(RuntimeError, match="boom"):
            ask()
        assert fabric.snapshot_context() == before

    def test_in_place_from_an_unplaced_thread(self, m4):
        with fabric.execution_context(trace_id="t", hop=3, span_id="s"):
            self.raises_and_restores(
                lambda: m4.server.request("boom", processor=2)
            )
        assert m4.seen == [(2, "t", 3, "s")]

    def test_in_place_from_a_thread_already_on_the_node(self, m4):
        with fabric.execution_context(
            processor=1, trace_id="t", hop=3, span_id="s"
        ):
            self.raises_and_restores(
                lambda: m4.server.request("boom", processor=1)
            )
        assert m4.seen == [(1, "t", 3, "s")]

    def test_at_a_remote_target(self, m4):
        with fabric.execution_context(
            processor=0, trace_id="t", hop=3, span_id="s"
        ):
            self.raises_and_restores(
                lambda: m4.server.request("boom", processor=3)
            )
        # The message's envelope, one hop on, on the target node.
        assert m4.seen == [(3, "t", 4, "s")]
        assert m4.routed_count == 1

    @pytest.mark.parametrize("origin", [None, 2])
    def test_as_a_fan_outs_in_place_holder(self, m4, origin):
        holders = dict.fromkeys(range(4), ())
        with fabric.execution_context(processor=origin, trace_id="t"):
            self.raises_and_restores(
                lambda: m4.server.request_each(
                    "boom", holders, (), status_tally(4)
                )
            )
        in_place = [frame for frame in m4.seen if frame[2] == 0]
        assert [frame[0] for frame in in_place] == (
            [0, 1, 2, 3] if origin is None else [origin]
        )
        assert {frame[1] for frame in m4.seen} == {"t"}

    def test_a_caller_on_the_node_lends_the_handler_its_own_frame(self):
        m = Machine(2)
        seen = []

        def look(node, *status):
            seen.append(fabric.snapshot_context())
            for variable in status:
                variable.define(0)

        m.server.load({"look": look})
        with fabric.execution_context(
            processor=1, trace_id="mine", hop=5, span_id="open"
        ):
            m.server.request("look", processor=1)
            m.server.request_each("look", {1: ()}, (), status_tally(1))
        assert seen == [(1, "mine", 5, "open")] * 2
        assert m.routed_count == 0
