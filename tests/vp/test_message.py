"""Typed messages (§3.4.1)."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.vp.message import Message, MessageType


def make(payload="x", **kw):
    defaults = dict(source=0, dest=1, payload=payload)
    defaults.update(kw)
    return Message(**defaults)


class TestMatching:
    def test_type_mismatch(self):
        m = make(mtype=MessageType.PCN)
        assert not m.matches(MessageType.DATA_PARALLEL)
        assert m.matches(MessageType.PCN)

    def test_none_type_matches_any(self):
        assert make(mtype=MessageType.DATA_PARALLEL).matches(None)

    def test_tag_must_match_exactly(self):
        m = make(tag=("coll", "bcast", 3))
        assert m.matches(MessageType.PCN, tag=("coll", "bcast", 3))
        assert not m.matches(MessageType.PCN, tag=("coll", "bcast", 4))

    def test_match_any_tag(self):
        assert make(tag="anything").matches(MessageType.PCN, match_any_tag=True)

    def test_source_filter(self):
        m = make(source=7)
        assert m.matches(MessageType.PCN, source=7)
        assert not m.matches(MessageType.PCN, source=2)
        assert m.matches(MessageType.PCN, source=None)

    def test_group_must_match(self):
        m = make(group=("dcall", 9))
        assert m.matches(MessageType.PCN, group=("dcall", 9))
        assert not m.matches(MessageType.PCN, group=("dcall", 8))
        assert not m.matches(MessageType.PCN)  # default group None
        assert m.matches(MessageType.PCN, match_any_group=True)


class TestSizeAccounting:
    def test_numpy_payload(self):
        assert make(np.zeros(10)).nbytes() == 80

    def test_bytes_payload(self):
        assert make(b"abcd").nbytes() == 4

    def test_list_payload(self):
        assert make([1, 2, 3]).nbytes() == 24

    def test_scalar_payload(self):
        assert make(1.5).nbytes() == 8

    def test_payload_nbytes_is_evaluated_once(self):
        # An array batch's or a replica update's nbytes walks its whole
        # mutation list: pricing a message must not walk it twice.
        class Counted:
            evaluations = 0

            @property
            def nbytes(self):
                self.evaluations += 1
                return 24

        payload = Counted()
        assert make(payload).nbytes() == 24
        assert payload.evaluations == 1


def test_sequence_numbers_increase():
    a, b = make(), make()
    assert b.seq > a.seq


class TestFrozenDataclassContract:
    """``Message.__init__`` is written by hand; everything else a frozen
    dataclass promises still holds."""

    FIELDS = (
        "source", "dest", "payload", "mtype", "tag", "group", "seq", "kind",
        "trace_id", "hop", "span_id",
    )

    def test_fields_and_their_order(self):
        assert dataclasses.is_dataclass(Message)
        assert tuple(f.name for f in dataclasses.fields(Message)) == self.FIELDS

    def test_positional_construction_follows_field_order(self):
        values = (
            3, 4, "p", MessageType.DATA_PARALLEL, "tag", "group", 17,
            "server_request", "t-1", 2, "s-9",
        )
        m = Message(*values)
        assert tuple(getattr(m, name) for name in self.FIELDS) == values
        assert dataclasses.astuple(m) == values

    def test_defaults(self):
        m = Message(0, 1, "p")
        assert (m.mtype, m.tag, m.group, m.kind) == (
            MessageType.PCN, None, None, "user",
        )
        assert (m.trace_id, m.hop, m.span_id) == (None, 0, None)
        assert isinstance(m.seq, int)

    def test_assignment_and_deletion_are_refused(self):
        m = make()
        with pytest.raises(dataclasses.FrozenInstanceError):
            m.hop = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            m.extra = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            del m.payload

    def test_equality_is_by_fields(self):
        m = make(tag="t")
        same = Message(
            m.source, m.dest, m.payload, m.mtype, m.tag, m.group, m.seq,
        )
        assert same == m and same is not m and hash(same) == hash(m)
        assert make(tag="t") != m  # a fresh message draws a fresh seq
        assert dataclasses.replace(m, hop=1) != m

    def test_replace_keeps_the_sequence_number(self):
        m = make()
        copy = dataclasses.replace(m, hop=2, trace_id="t-5")
        assert copy.seq == m.seq
        assert (copy.hop, copy.trace_id, copy.payload) == (2, "t-5", m.payload)

    def test_sequence_number_is_fresh_when_omitted_kept_when_given(self):
        a, b = make(), make()
        assert b.seq > a.seq
        assert make(seq=a.seq).seq == a.seq
        assert make(seq=0).seq == 0

    def test_repr_names_every_field(self):
        text = repr(make(tag="t"))
        assert text.startswith("Message(source=0, dest=1, payload='x'")
        assert all(f"{name}=" in text for name in self.FIELDS)

    def test_subclass_init_reaches_it(self):
        class Recorded(Message):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)

        m = Recorded(source=0, dest=1, payload="x", hop=3)
        assert (m.hop, m.kind) == (3, "user")
