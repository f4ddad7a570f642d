"""Index arithmetic: global <-> (section, local) <-> storage (§3.2.1)."""

from __future__ import annotations

import itertools
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrays.layout import (
    COLUMN_MAJOR,
    KEPT_REGIONS,
    ROW_MAJOR,
    ArrayLayout,
    flatten_index,
    normalize_indexing,
    unflatten_index,
)


class TestIndexingNames:
    def test_aliases(self):
        assert normalize_indexing("C") == ROW_MAJOR
        assert normalize_indexing("row") == ROW_MAJOR
        assert normalize_indexing("Fortran") == COLUMN_MAJOR
        assert normalize_indexing("column") == COLUMN_MAJOR

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            normalize_indexing("diagonal")


class TestFlatten:
    def test_row_major_2d(self):
        assert flatten_index((1, 2), (3, 4), ROW_MAJOR) == 6

    def test_column_major_2d(self):
        assert flatten_index((1, 2), (3, 4), COLUMN_MAJOR) == 7

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            flatten_index((1,), (3, 4), ROW_MAJOR)

    def test_roundtrip_exhaustive_small(self):
        dims = (2, 3, 4)
        for order in (ROW_MAJOR, COLUMN_MAJOR):
            for idx in itertools.product(*[range(d) for d in dims]):
                flat = flatten_index(idx, dims, order)
                assert unflatten_index(flat, dims, order) == idx


def paper_layout(**overrides):
    """The Fig 3.5 configuration: 8x8 array, 4x2 grid, row-major."""
    spec = dict(
        dims=(8, 8),
        grid=(4, 2),
        borders=(0, 0, 0, 0),
        indexing=ROW_MAJOR,
        grid_indexing=ROW_MAJOR,
    )
    spec.update(overrides)
    return ArrayLayout(**spec)


class TestPaperWorkedIndices:
    def test_fig35_blacked_element(self):
        """§3.2.1.1: global (2,5) -> local (0,1) on processor (1,1);
        with row-major ordering that is element 1 of the section on
        processor 3."""
        layout = paper_layout()
        assert layout.owner_coords((2, 5)) == (1, 1)
        assert layout.local_indices((2, 5)) == (0, 1)
        section, local = layout.locate((2, 5))
        assert section == 3
        assert layout.storage_offset(local) == 1

    def test_fig38_row_vs_column_major_placement(self):
        """Fig 3.8: a 4x4 array X over 4 processors (0,2,4,6): X(0,1) goes
        to the second grid cell under row-major but the third under
        column-major."""
        row = ArrayLayout((4, 4), (2, 2), (0,) * 4, ROW_MAJOR, ROW_MAJOR)
        col = ArrayLayout((4, 4), (2, 2), (0,) * 4, COLUMN_MAJOR, COLUMN_MAJOR)
        # processors array is (0, 2, 4, 6); X(0,1)'s grid cell is (0,1).
        procs = (0, 2, 4, 6)
        assert procs[row.section_index(row.owner_coords((0, 2)))] == 2
        assert procs[col.section_index(col.owner_coords((0, 2)))] == 4

    def test_local_dims(self):
        assert paper_layout().local_dims == (2, 4)

    def test_local_dims_plus_with_borders(self):
        """§3.2.1.3 / Fig 3.7: a 4x2 section with borders (2,2,1,1) has
        bordered shape (8, 4)."""
        layout = ArrayLayout(
            (16, 4), (4, 2), (2, 2, 1, 1), ROW_MAJOR, ROW_MAJOR
        )
        assert layout.local_dims == (4, 2)
        assert layout.local_dims_plus == (8, 4)

    def test_storage_offset_respects_borders(self):
        layout = ArrayLayout((4, 4), (1, 1), (1, 1, 1, 1), ROW_MAJOR, ROW_MAJOR)
        # interior (0,0) sits at bordered (1,1) of a 6x6 buffer -> 7.
        assert layout.storage_offset((0, 0)) == 7


class TestValidation:
    def test_bad_grid_rank(self):
        with pytest.raises(ValueError):
            ArrayLayout((8,), (2, 2), (0, 0), ROW_MAJOR, ROW_MAJOR)

    def test_bad_border_count(self):
        with pytest.raises(ValueError):
            ArrayLayout((8,), (2,), (0,), ROW_MAJOR, ROW_MAJOR)

    def test_indivisible_grid(self):
        with pytest.raises(ValueError):
            ArrayLayout((9,), (2,), (0, 0), ROW_MAJOR, ROW_MAJOR)

    def test_out_of_range_index(self):
        with pytest.raises(IndexError):
            paper_layout().locate((8, 0))

    def test_negative_index(self):
        with pytest.raises(IndexError):
            paper_layout().locate((-1, 0))

    def test_wrong_rank_index(self):
        with pytest.raises(ValueError):
            paper_layout().locate((1,))


@st.composite
def layout_strategy(draw):
    rank = draw(st.integers(1, 3))
    grid = tuple(draw(st.sampled_from([1, 2, 4])) for _ in range(rank))
    mult = tuple(draw(st.integers(1, 3)) for _ in range(rank))
    dims = tuple(g * m for g, m in zip(grid, mult))
    borders = tuple(
        draw(st.integers(0, 2)) for _ in range(2 * rank)
    )
    indexing = draw(st.sampled_from([ROW_MAJOR, COLUMN_MAJOR]))
    return ArrayLayout(dims, grid, borders, indexing, indexing)


@settings(max_examples=100, deadline=None)
@given(layout_strategy())
def test_property_locate_is_bijective(layout):
    """Every global index maps to exactly one (section, local) pair and
    back — the §3.2.1.1 'conversely' clause."""
    seen = set()
    for idx in itertools.product(*[range(d) for d in layout.dims]):
        section, local = layout.locate(idx)
        assert 0 <= section < layout.num_sections
        key = (section, local)
        assert key not in seen
        seen.add(key)
        assert layout.global_indices(section, local) == idx
    assert len(seen) == layout.global_size


@settings(max_examples=100, deadline=None)
@given(layout_strategy())
def test_property_storage_offsets_distinct_within_section(layout):
    """Within one section, distinct interior elements occupy distinct
    storage offsets, all inside the bordered buffer."""
    offsets = set()
    size_plus = layout.local_size_plus()
    for local in itertools.product(*[range(d) for d in layout.local_dims]):
        offset = layout.storage_offset(local)
        assert 0 <= offset < size_plus
        offsets.add(offset)
    assert len(offsets) == layout.local_size()


@settings(max_examples=50, deadline=None)
@given(layout_strategy())
def test_property_replace_borders_preserves_partition(layout):
    new = layout.replace_borders((1,) * (2 * layout.rank))
    assert new.dims == layout.dims
    assert new.grid == layout.grid
    assert new.local_dims == layout.local_dims
    assert all(b == 1 for b in new.borders)


# -- region decompositions --------------------------------------------------


def draw_region(data, layout):
    """A valid region of ``layout``: one non-empty ``(start, stop)`` pair
    per dimension, inside the bounds."""
    region = []
    for dim in layout.dims:
        start = data.draw(st.integers(0, dim - 1))
        region.append((start, data.draw(st.integers(start + 1, dim))))
    return tuple(region)


def fresh(layout):
    """An equal layout that has kept nothing."""
    return ArrayLayout(
        layout.dims, layout.grid, layout.borders, layout.indexing,
        layout.grid_indexing,
    )


@settings(max_examples=100, deadline=None)
@given(layout_strategy(), st.data())
def test_property_region_sections_tile_the_region_as_locate_does(
    layout, data
):
    """The triples tile the region exactly once, every cell lands where
    ``locate`` puts it, and a second ask returns the kept tuple."""
    region = draw_region(data, layout)
    parts = layout.region_sections(region)
    cover = np.zeros(layout.region_shape(region), dtype=int)
    for section, local_slices, region_slices in parts:
        cover[region_slices] += 1
        for offset in itertools.product(
            *(range(s.start, s.stop) for s in region_slices)
        ):
            cell = tuple(lo + o for (lo, _), o in zip(region, offset))
            local = tuple(
                ls.start + o - rs.start
                for ls, rs, o in zip(local_slices, region_slices, offset)
            )
            assert layout.locate(cell) == (section, local)
    assert (cover == 1).all()
    assert layout.region_sections(region) is parts


@settings(max_examples=100, deadline=None)
@given(layout_strategy(), st.data())
def test_property_an_invalid_region_raises_on_every_ask_and_is_never_kept(
    layout, data
):
    axis = data.draw(st.integers(0, layout.rank - 1))
    region = list(draw_region(data, layout))
    dim = layout.dims[axis]
    region[axis] = data.draw(st.sampled_from([
        (0, 0), (-1, 1), (0, dim + 1), (dim, dim + 1), (1, 1),
    ]))
    for invalid in (tuple(region), tuple(region[:-1]), tuple(region) * 2):
        for _ in range(2):
            with pytest.raises((ValueError, IndexError)):
                layout.region_sections(invalid)
        assert invalid not in layout._regions


@settings(max_examples=30, deadline=None)
@given(layout_strategy(), st.data())
def test_property_the_kept_table_is_bounded_and_serves_true_answers(
    layout, data
):
    """However many regions are asked, in any order and with repeats, the
    table never holds more than its bound, and what an ask returns is
    what a layout that has kept nothing works out."""
    for _ in range(data.draw(st.integers(1, 3 * KEPT_REGIONS))):
        region = draw_region(data, layout)
        assert layout.region_sections(region) == fresh(layout).region_sections(
            region
        )
        assert len(layout._regions) <= KEPT_REGIONS


def test_the_last_regions_asked_are_the_ones_kept():
    layout = ArrayLayout((256,), (4,), (0, 0), ROW_MAJOR, ROW_MAJOR)
    regions = [((i, i + 2),) for i in range(KEPT_REGIONS + 20)]
    for region in regions:
        layout.region_sections(region)
    assert list(layout._regions) == regions[-KEPT_REGIONS:]


def test_threads_sharing_one_table_get_true_answers():
    """Every thread that reads a region shares its layout's table: eight
    threads asking overlapping regions, more of them than the table
    keeps, with threads switched every microsecond, each get what a
    layout that has kept nothing works out, and the bound holds."""
    layout = ArrayLayout((64, 64), (4, 2), (0,) * 4, ROW_MAJOR, ROW_MAJOR)
    regions = [
        ((r, r + 1 + r % 7), (c, c + 1 + c % 5))
        for r in range(0, 60, 6) for c in range(0, 60, 4)
    ]
    expected = {
        region: fresh(layout).region_sections(region) for region in regions
    }
    wrong = []

    def ask(offset):
        for i in range(4 * len(regions)):
            region = regions[(offset + 7 * i) % len(regions)]
            if layout.region_sections(region) != expected[region]:
                wrong.append(region)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=ask, args=(k,)) for k in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    assert len(layout._regions) <= KEPT_REGIONS
