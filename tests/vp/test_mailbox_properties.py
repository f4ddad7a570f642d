"""Property-based tests for the mailbox's selective-receive semantics."""

from __future__ import annotations

import threading
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vp.mailbox import Mailbox
from repro.vp.message import Message, MessageType


def deliver_all(box, descriptors):
    for i, (mtype, tag) in enumerate(descriptors):
        box.deliver(
            Message(
                source=0, dest=1, payload=i, mtype=mtype, tag=tag
            )
        )


message_descriptor = st.tuples(
    st.sampled_from([MessageType.PCN, MessageType.DATA_PARALLEL]),
    st.sampled_from(["a", "b", None]),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(message_descriptor, max_size=20))
def test_property_selective_receive_is_per_filter_fifo(descriptors):
    """For any delivery order, draining one (type, tag) filter yields that
    filter's messages in arrival order, untouched by other traffic."""
    box = Mailbox(owner=1)
    deliver_all(box, descriptors)
    for want_type in (MessageType.PCN, MessageType.DATA_PARALLEL):
        for want_tag in ("a", "b", None):
            expected = [
                i
                for i, (mtype, tag) in enumerate(descriptors)
                if mtype is want_type and tag == want_tag
            ]
            got = []
            for _ in expected:
                got.append(
                    box.recv(mtype=want_type, tag=want_tag, timeout=0.5)
                    .payload
                )
            assert got == expected
    assert box.pending() == 0


@settings(max_examples=100, deadline=None)
@given(st.lists(message_descriptor, min_size=1, max_size=20))
def test_property_untyped_receive_is_global_fifo(descriptors):
    """The untyped (pre-fix) receive drains strictly in arrival order."""
    box = Mailbox(owner=1)
    deliver_all(box, descriptors)
    got = [box.recv_untyped(timeout=0.5).payload for _ in descriptors]
    assert got == list(range(len(descriptors)))


@settings(max_examples=50, deadline=None)
@given(
    st.lists(message_descriptor, max_size=12),
    st.integers(0, 11),
)
def test_property_non_matching_messages_preserved(descriptors, take):
    """Receiving on one filter never consumes or reorders the rest."""
    box = Mailbox(owner=1)
    deliver_all(box, descriptors)
    pcn_a = [
        i
        for i, (mtype, tag) in enumerate(descriptors)
        if mtype is MessageType.PCN and tag == "a"
    ]
    for _ in range(min(take, len(pcn_a))):
        box.recv(mtype=MessageType.PCN, tag="a", timeout=0.5)
    leftover = [m.payload for m in box.drain()]
    taken = pcn_a[: min(take, len(pcn_a))]
    assert leftover == [i for i in range(len(descriptors)) if i not in taken]


receive_or_deliver = st.one_of(
    st.tuples(st.just("recv"), st.sampled_from(["a", "b", "any"])),
    st.tuples(st.just("deliver"), st.sampled_from(["a", "b"])),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(receive_or_deliver, max_size=14))
def test_property_hand_off_matches_the_sequential_model(ops):
    """Receives and deliveries in any order: a receive takes the oldest
    buffered match or suspends; a delivery goes to the oldest suspended
    receive that accepts it, else into the buffer.  Checked against a
    model that is two plain lists."""
    box = Mailbox(owner=1)
    buffered: list = []  # model: (payload, tag) in arrival order
    parked: list = []  # model: (wanted, thread, outcome) in arrival order

    def accepts(wanted, tag):
        return wanted == "any" or wanted == tag

    def recv(wanted, outcome):
        filters = (
            {"match_any_tag": True} if wanted == "any" else {"tag": wanted}
        )
        try:
            outcome.append(box.recv(timeout=10, **filters).payload)
        except RuntimeError:
            outcome.append("poisoned")

    for payload, (op, arg) in enumerate(ops):
        if op == "deliver":
            box.deliver(Message(source=0, dest=1, payload=payload, tag=arg))
            taker = next((w for w in parked if accepts(w[0], arg)), None)
            if taker is None:
                buffered.append((payload, arg))
                continue
            parked.remove(taker)
            taker[1].join(timeout=5)
            assert taker[2] == [payload]
            continue
        outcome: list = []
        match = next((m for m in buffered if accepts(arg, m[1])), None)
        if match is not None:
            buffered.remove(match)
            recv(arg, outcome)
            assert outcome == [match[0]]
            continue
        thread = threading.Thread(
            target=recv, args=(arg, outcome), daemon=True
        )
        thread.start()
        while thread.ident not in box.blocked_receivers():
            time.sleep(0.0005)
        parked.append((arg, thread, outcome))
    assert len(box.blocked_receivers()) == len(parked)
    assert all(outcome == [] for _w, _t, outcome in parked)
    box.poison(RuntimeError("done"))
    for _wanted, thread, outcome in parked:
        thread.join(timeout=5)
        assert outcome == ["poisoned"]
    assert [m.payload for m in box.drain()] == [p for p, _tag in buffered]
