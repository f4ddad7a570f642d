"""Internal array representation (§5.1.3-§5.1.4)."""

from __future__ import annotations

import pytest

from repro.arrays.layout import ArrayLayout
from repro.arrays.local_section import LocalSection
from repro.arrays.record import SERIALS, ArrayID, ArrayRecord


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
