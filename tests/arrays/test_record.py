"""Internal array representation (§5.1.3-§5.1.4)."""

from __future__ import annotations

import pickle

import pytest

from repro.arrays import am_user, am_util
from repro.arrays.layout import ArrayLayout
from repro.arrays.local_section import LocalSection
from repro.arrays.record import SERIALS, ArrayID, ArrayRecord
from repro.status import Status
from repro.vp.machine import Machine
from repro.vp.message import Message


def layout():
    return ArrayLayout((8, 8), (2, 2), (1, 1, 1, 1), "row", "row")


def record(**overrides):
    defaults = dict(
        array_id=ArrayID(0, 0),
        type_name="double",
        layout=layout(),
        processors=(0, 1, 2, 3),
        section=None,
    )
    defaults.update(overrides)
    return ArrayRecord(**defaults)


class TestArrayID:
    def test_is_two_tuple_of_ints(self):
        aid = ArrayID(3, 17)
        assert aid.as_tuple() == (3, 17)

    def test_equality_and_hash(self):
        assert ArrayID(1, 2) == ArrayID(1, 2)
        assert ArrayID(1, 2) != ArrayID(2, 1)
        assert len({ArrayID(0, 0), ArrayID(0, 0), ArrayID(0, 1)}) == 2

    def test_ordering(self):
        assert ArrayID(0, 1) < ArrayID(0, 2) < ArrayID(1, 0)

    def test_fields_keywords_repr_and_pickle(self):
        aid = ArrayID(creating_processor=3, serial=17)
        assert (aid.creating_processor, aid.serial) == (3, 17)
        assert repr(aid) == str(aid) == "ArrayID(3, 17)"
        assert type(aid.as_tuple()) is tuple
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            again = pickle.loads(pickle.dumps(aid, protocol))
            assert again == aid and type(again) is ArrayID
        with pytest.raises(AttributeError):
            aid.serial = 4

    def test_a_message_prices_it_as_one_word(self):
        assert Message(0, 1, ArrayID(3, 17)).nbytes() == 8

    def test_a_bare_tuple_is_not_an_id(self):
        """An ID hashes and compares as its tuple, but the manager still
        answers NOT_FOUND for a bare tuple where an ArrayID is due."""
        machine = Machine(2)
        am_util.load_all(machine)
        aid, status = am_user.create_array(
            machine, "double", (4,), [0, 1], ["block"]
        )
        assert status is Status.OK
        assert am_user.read_element(machine, aid, (3,)) == (0.0, Status.OK)
        _value, status = am_user.read_element(machine, tuple(aid), (3,))
        assert status is Status.NOT_FOUND

    def test_serials_distinguish_per_processor(self):
        a = SERIALS.next_for(5)
        b = SERIALS.next_for(5)
        c = SERIALS.next_for(6)
        assert b == a + 1
        # serials are per-processor counters
        assert SERIALS.next_for(6) == c + 1


class TestInfoDispatch:
    def test_all_selectors(self):
        r = record()
        assert r.info("type") == "double"
        assert r.info("dimensions") == [8, 8]
        assert r.info("processors") == [0, 1, 2, 3]
        assert r.info("grid_dimensions") == [2, 2]
        assert r.info("local_dimensions") == [4, 4]
        assert r.info("borders") == [1, 1, 1, 1]
        assert r.info("local_dimensions_plus") == [6, 6]
        assert r.info("indexing_type") == "row"
        assert r.info("grid_indexing_type") == "row"

    def test_unknown_selector(self):
        with pytest.raises(ValueError):
            record().info("weight")


class TestValidity:
    def test_record_with_section(self):
        section = LocalSection("double", (4, 4), (1, 1, 1, 1), "row")
        r = record(section=section)
        assert r.section is section
        section.free()
