"""Mailboxes: selective typed receive (§3.4.1)."""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.status import ProcessorFailedError
from repro.vp.mailbox import Mailbox
from repro.vp.message import Message, MessageType


def msg(source=0, dest=1, payload="p", mtype=MessageType.PCN, tag=None, group=None):
    return Message(
        source=source, dest=dest, payload=payload, mtype=mtype, tag=tag,
        group=group,
    )


class TestSelectiveReceive:
    def test_fifo_within_matching_messages(self):
        box = Mailbox(0)
        box.deliver(msg(payload="first"))
        box.deliver(msg(payload="second"))
        assert box.recv().payload == "first"
        assert box.recv().payload == "second"

    def test_filter_by_type(self):
        """The §3.4.1 requirement: a receive for PCN-typed messages must
        not take a data-parallel message, whatever the arrival order."""
        box = Mailbox(0)
        box.deliver(msg(mtype=MessageType.DATA_PARALLEL, payload="dp"))
        box.deliver(msg(mtype=MessageType.PCN, payload="pcn"))
        assert box.recv(mtype=MessageType.PCN).payload == "pcn"
        assert box.recv(mtype=MessageType.DATA_PARALLEL).payload == "dp"

    def test_filter_by_tag(self):
        box = Mailbox(0)
        box.deliver(msg(tag="b", payload=2))
        box.deliver(msg(tag="a", payload=1))
        assert box.recv(tag="a").payload == 1
        assert box.recv(tag="b").payload == 2

    def test_filter_by_source(self):
        box = Mailbox(0)
        box.deliver(msg(source=5, payload="five"))
        box.deliver(msg(source=3, payload="three"))
        assert box.recv(source=3).payload == "three"

    def test_filter_by_group(self):
        """Concurrent distributed calls: group ids keep their traffic
        apart even on a shared processor."""
        box = Mailbox(0)
        box.deliver(msg(group="callA", payload="a"))
        box.deliver(msg(group="callB", payload="b"))
        assert box.recv(group="callB").payload == "b"
        assert box.recv(group="callA").payload == "a"

    def test_match_any_tag(self):
        box = Mailbox(0)
        box.deliver(msg(tag=("x", 1), payload=9))
        assert box.recv(match_any_tag=True).payload == 9

    def test_mtype_none_matches_any_type(self):
        box = Mailbox(0)
        box.deliver(msg(mtype=MessageType.DATA_PARALLEL))
        assert box.recv(mtype=None, match_any_group=True).payload == "p"

    def test_recv_blocks_until_match_arrives(self):
        box = Mailbox(0)
        got = []

        def receiver():
            got.append(box.recv(tag="wanted", timeout=5).payload)

        t = threading.Thread(target=receiver)
        t.start()
        box.deliver(msg(tag="unwanted", payload="no"))
        box.deliver(msg(tag="wanted", payload="yes"))
        t.join(timeout=5)
        assert got == ["yes"]
        assert box.pending() == 1  # the unwanted message stays buffered

    def test_recv_timeout(self):
        box = Mailbox(0)
        with pytest.raises(TimeoutError):
            box.recv(timeout=0.05)

    def test_timeout_message_names_filter(self):
        box = Mailbox(7)
        with pytest.raises(TimeoutError, match="processor 7"):
            box.recv(tag="t", timeout=0.01)


class TestUntypedReceive:
    def test_untyped_takes_oldest_regardless(self):
        """The pre-fix Cosmic Environment behaviour: the receive takes
        whatever arrived first — the interception hazard of §3.4.1."""
        box = Mailbox(0)
        box.deliver(msg(mtype=MessageType.DATA_PARALLEL, payload="dp-first"))
        box.deliver(msg(mtype=MessageType.PCN, payload="pcn-second"))
        assert box.recv_untyped().payload == "dp-first"

    def test_untyped_timeout(self):
        with pytest.raises(TimeoutError):
            Mailbox(0).recv_untyped(timeout=0.05)


class TestAccounting:
    def test_drain(self):
        box = Mailbox(0)
        box.deliver(msg())
        box.deliver(msg())
        assert len(box.drain()) == 2
        assert box.pending() == 0


def suspended_recv(box, **filters):
    """Start ``box.recv(**filters)`` on a thread and wait until it is
    parked; returns ``(thread, outcome list)`` — the list gets the message
    or the exception the receive ended with."""
    outcome = []
    before = set(box.blocked_receivers())

    def receiver():
        try:
            outcome.append(box.recv(timeout=5, **filters))
        except BaseException as exc:  # noqa: BLE001 - the test inspects it
            outcome.append(exc)

    thread = threading.Thread(target=receiver, daemon=True)
    thread.start()
    deadline = time.monotonic() + 5
    while set(box.blocked_receivers()) == before:
        assert time.monotonic() < deadline, "receiver never suspended"
        time.sleep(0.001)
    return thread, outcome


def finished(thread):
    thread.join(timeout=5)
    return not thread.is_alive()


class TestHandOff:
    """``deliver`` hands a message straight to the suspended receive that
    accepts it: one message, one receiver, one wake."""

    def test_buffered_message_wins_over_later_match(self):
        box = Mailbox(0)
        for payload in ("old", "other", "new"):
            box.deliver(msg(tag="o" if payload == "other" else "t",
                            payload=payload))
        assert box.recv(tag="t").payload == "old"
        assert box.recv(tag="t").payload == "new"
        assert [m.payload for m in box.drain()] == ["other"]

    def test_oldest_accepting_waiter_gets_the_message(self):
        box = Mailbox(0)
        t_any, got_any = suspended_recv(box, match_any_tag=True)
        t_tag, got_tag = suspended_recv(box, tag="t")
        box.deliver(msg(tag="t", payload="first"))
        assert finished(t_any) and got_any[0].payload == "first"
        # The younger receive accepts it too, but was not woken for it.
        assert got_tag == [] and len(box.blocked_receivers()) == 1
        assert box.pending() == 0
        box.deliver(msg(tag="t", payload="second"))
        assert finished(t_tag) and got_tag[0].payload == "second"

    def test_waiter_whose_filter_refuses_is_skipped(self):
        box = Mailbox(0)
        t_a, got_a = suspended_recv(box, tag="a")
        t_b, got_b = suspended_recv(box, tag="b")
        box.deliver(msg(tag="b", payload="for-b"))
        assert finished(t_b) and got_b[0].payload == "for-b"
        assert got_a == []
        box.deliver(msg(tag="c", payload="nobody"))
        assert box.pending() == 1 and got_a == []
        box.deliver(msg(tag="a", payload="for-a"))
        assert finished(t_a) and got_a[0].payload == "for-a"

    def test_deliver_racing_timeout_delivers_exactly_once(self):
        """A message delivered as a receive times out is either returned
        by that receive or left in the buffer — never both, never lost."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_no in range(300):
                box = Mailbox(0)
                got = []

                def receiver():
                    try:
                        got.append(box.recv(tag="t", timeout=0.002))
                    except TimeoutError:
                        pass

                thread = threading.Thread(target=receiver, daemon=True)
                thread.start()
                time.sleep(0.002 * (round_no % 5) / 4)
                box.deliver(msg(tag="t", payload=round_no))
                assert finished(thread)
                left = box.drain()
                assert len(got) + len(left) == 1
                assert (got or left)[0].payload == round_no
                assert box.blocked_receivers() == {}
        finally:
            sys.setswitchinterval(interval)

    def test_poison_wakes_every_waiter(self):
        box = Mailbox(0)
        waiting = [suspended_recv(box, tag=t) for t in ("a", "b", "c")]
        boom = RuntimeError("owner died")
        box.poison(boom)
        for thread, outcome in waiting:
            assert finished(thread) and outcome == [boom]
        assert box.blocked_receivers() == {}
        with pytest.raises(RuntimeError):
            box.recv(timeout=0.01)
        box.unpoison()
        box.deliver(msg())
        assert box.recv().payload == "p"

    def test_dead_source_wakes_only_its_selective_waiters(self):
        box = Mailbox(4)
        box.deliver(msg(source=2, tag="early", payload="kept"))
        t_two, got_two = suspended_recv(box, source=2, tag="t")
        t_any, got_any = suspended_recv(box, tag="t")
        t_three, got_three = suspended_recv(box, source=3, tag="t")
        box.mark_source_dead(2)
        assert finished(t_two)
        assert isinstance(got_two[0], ProcessorFailedError)
        assert got_two[0].processor == 2
        assert "processor 4" in str(got_two[0])
        assert got_any == [] and got_three == []
        assert len(box.blocked_receivers()) == 2
        # What the dead peer sent before dying is still receivable; only a
        # receive that would suspend on it fails.
        assert box.recv(source=2, tag="early").payload == "kept"
        with pytest.raises(ProcessorFailedError):
            box.recv(source=2, tag="t", timeout=1)
        box.mark_source_alive(2)
        box.deliver(msg(source=3, tag="t", payload="x"))
        assert finished(t_any) and got_any[0].payload == "x"
        box.deliver(msg(source=3, tag="t", payload="y"))
        assert finished(t_three) and got_three[0].payload == "y"

    def test_blocked_receiver_snapshots_keep_their_shapes(self):
        """The watchdog's wait graph keys on these: thread ident ->
        description, and ident -> (description, selective source)."""
        box = Mailbox(0)
        assert box.blocked_receivers() == {}
        thread, got = suspended_recv(box, tag=("k", 1), source=6, group="g")
        (ident,) = box.blocked_receivers()
        assert ident == thread.ident
        describe = box.blocked_receivers()[ident]
        assert "tag=('k', 1)" in describe and "source=6" in describe
        assert "group='g'" in describe
        assert box.blocked_receivers_detailed() == {ident: (describe, 6)}
        box.deliver(msg(source=6, tag=("k", 1), group="g"))
        assert finished(thread)
        assert box.blocked_receivers_detailed() == {}


class TestInterruptedReceive:
    """An exception escaping the suspended wait (``KeyboardInterrupt`` on
    the main thread) must not leave a dead waiter to swallow messages."""

    @staticmethod
    def interrupt_waits(monkeypatch, before_raise=lambda: None):
        from repro.vp import mailbox

        class InterruptedLock:
            def acquire(self, timeout=-1):
                before_raise()
                raise KeyboardInterrupt

            def release(self):
                pass

        class InterruptedWaiter(mailbox._Waiter):
            def __init__(self, *args):
                super().__init__(*args)
                self.wake = InterruptedLock()

        monkeypatch.setattr(mailbox, "_Waiter", InterruptedWaiter)

    def test_interrupted_receive_unregisters_its_waiter(self, monkeypatch):
        box = Mailbox(0)
        self.interrupt_waits(monkeypatch)
        with pytest.raises(KeyboardInterrupt):
            box.recv(tag="t")
        assert box.blocked_receivers() == {}
        box.deliver(msg(tag="t", payload="kept"))
        assert box.pending() == 1
        monkeypatch.undo()
        assert box.recv(tag="t").payload == "kept"

    def test_message_handed_to_an_interrupted_receive_goes_back(
        self, monkeypatch
    ):
        """Handed over, then the wait is interrupted: the message returns,
        ahead of what arrived after it."""
        box = Mailbox(0)

        def hand_over_then_more():
            box.deliver(msg(tag="t", payload=b"1234"))
            box.deliver(msg(tag="t", payload=b"later"))

        self.interrupt_waits(monkeypatch, hand_over_then_more)
        with pytest.raises(KeyboardInterrupt):
            box.recv(tag="t")
        monkeypatch.undo()
        assert box.pending() == 2
        assert box.recv(tag="t").payload == b"1234"
        assert box.recv(tag="t").payload == b"later"

    def test_returned_message_goes_to_a_waiting_receive(self, monkeypatch):
        """A younger receive suspended on an overlapping filter gets the
        message the interrupted one gave back."""
        box = Mailbox(0)
        younger = []

        def hand_over():
            monkeypatch.undo()  # the younger receive waits for real
            younger.extend(suspended_recv(box, match_any_tag=True))
            box.deliver(msg(tag="t", payload="once"))
            assert not younger[1]  # handed to the older, interrupted one

        self.interrupt_waits(monkeypatch, hand_over)
        with pytest.raises(KeyboardInterrupt):
            box.recv(tag="t")
        thread, got = younger
        assert finished(thread) and got[0].payload == "once"
        assert box.pending() == 0
