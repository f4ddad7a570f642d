"""The intersection of two distributions (repro.arrays.redistribute),
checked against cell-by-cell brute force."""

from __future__ import annotations

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrays.layout import COLUMN_MAJOR, ROW_MAJOR, ArrayLayout
from repro.arrays.redistribute import blocks, dense, transfers

# A grown, bordered block reaches at most 3 cells beyond the array,
# which is at most 20 cells long.
MARGIN = 4
SPAN = 20 + 2 * MARGIN


@st.composite
def layouts(draw):
    """A block layout: rank 1-3, grids 1-4, local extents 1-5, either
    index order for the array and for the grid, borders 0-3."""
    rank = draw(st.integers(1, 3))
    grid = tuple(draw(st.integers(1, 4)) for _ in range(rank))
    local = tuple(draw(st.integers(1, 5)) for _ in range(rank))
    return ArrayLayout(
        dims=tuple(g * n for g, n in zip(grid, local)),
        grid=grid,
        borders=tuple(draw(st.integers(0, 3)) for _ in range(2 * rank)),
        indexing=draw(st.sampled_from([ROW_MAJOR, COLUMN_MAJOR])),
        grid_indexing=draw(st.sampled_from([ROW_MAJOR, COLUMN_MAJOR])),
    )


def regrid(data, layout):
    """A second block layout of ``layout``'s dims on another grid, in
    either grid order: a regrid, or a transpose of the placement."""
    grid = tuple(
        data.draw(st.sampled_from([g for g in range(1, d + 1) if d % g == 0]))
        for d in layout.dims
    )
    return ArrayLayout(
        layout.dims, grid, layout.borders, layout.indexing,
        data.draw(st.sampled_from([ROW_MAJOR, COLUMN_MAJOR])),
    )


def draw_box(data, layout):
    box = []
    for dim in layout.dims:
        start = data.draw(st.integers(0, dim - 1))
        box.append((start, data.draw(st.integers(start + 1, dim))))
    return tuple(box)


def draw_blocks(data, layout):
    """``blocks(layout, pad, grow, axes)`` with ``grow <= pad``, as the
    halo exchange grows them."""
    pad = data.draw(st.integers(0, 3))
    grow = data.draw(st.integers(0, pad))
    axes = data.draw(st.sets(st.integers(0, layout.rank - 1)))
    return blocks(layout, pad, grow, axes)


def pieces(dist):
    """``{key: (origins, boxes)}``: each piece's storage origin and
    global ``(start, stop)`` along every dimension."""
    out = {}
    for combo in itertools.product(*dist.axes):
        coords, starts, stops, origins = zip(*combo)
        out[dist.key(coords)] = (origins, tuple(zip(starts, stops)))
    return out


def cells(box):
    return itertools.product(*(range(start, stop) for start, stop in box))


def assert_same_cells(src, dst, found):
    """Every transfer is non-empty, its slices stay inside both pieces,
    and they select the same global cells: a cell-id array indexed
    through each piece's storage gives the same ids."""
    rank = len(src.axes)
    ids = np.arange(SPAN ** rank).reshape((SPAN,) * rank)
    src_pieces, dst_pieces = pieces(src), pieces(dst)

    def storage(piece):
        origins, box = piece
        return ids[tuple(
            slice(o + MARGIN, stop + MARGIN) for o, (_, stop) in zip(origins, box)
        )]

    for src_key, dst_key, src_slices, dst_slices in found:
        for piece, slices in ((src_pieces[src_key], src_slices),
                              (dst_pieces[dst_key], dst_slices)):
            origins, box = piece
            for o, (start, stop), s in zip(origins, box, slices):
                assert start <= o + s.start < o + s.stop <= stop
        got = storage(src_pieces[src_key])[src_slices]
        assert got.size > 0
        assert np.array_equal(got, storage(dst_pieces[dst_key])[dst_slices])


def assert_owner_map(layout, dst, found):
    """Every cell of every ``dst`` piece is covered exactly once, by the
    section ``layout.locate`` names for it."""
    dst_pieces = pieces(dst)
    cover = {
        key: np.zeros([stop - start for start, stop in box], dtype=int)
        for key, (_, box) in dst_pieces.items()
    }
    for section, dst_key, _, dst_slices in found:
        cover[dst_key][dst_slices] += 1
        origins, _ = dst_pieces[dst_key]
        for cell in cells(
            [(o + s.start, o + s.stop) for o, s in zip(origins, dst_slices)]
        ):
            assert layout.locate(cell)[0] == section
    assert all((c == 1).all() for c in cover.values())


@settings(max_examples=100, deadline=None)
@given(layouts(), st.data())
def test_a_block_is_its_section_grown_and_stored_with_borders(layout, data):
    pad = data.draw(st.integers(0, 3))
    grow = data.draw(st.integers(0, pad))
    axes = data.draw(st.sets(st.integers(0, layout.rank - 1)))
    found = pieces(blocks(layout, pad, grow, axes))
    assert sorted(found) == list(range(layout.num_sections))
    for section, (origins, box) in found.items():
        corner = layout.global_indices(section, (0,) * layout.rank)
        for axis, (c, ld, o, (start, stop)) in enumerate(
            zip(corner, layout.local_dims, origins, box)
        ):
            extra = grow if axis in axes else 0
            assert (start, stop) == (c - extra, c + ld + extra)
            assert o == c - pad


@settings(max_examples=100, deadline=None)
@given(layouts(), st.data())
def test_blocks_to_a_dense_box_is_the_owner_map(layout, data):
    box = draw_box(data, layout)
    found = transfers(blocks(layout), dense(box, key="box"))
    assert {dst for _, dst, _, _ in found} == {"box"}
    assert_same_cells(blocks(layout), dense(box, key="box"), found)
    assert_owner_map(layout, dense(box, key="box"), found)


@settings(max_examples=100, deadline=None)
@given(layouts(), st.data())
def test_blocks_to_another_grid_is_the_owner_map(layout, data):
    other = regrid(data, layout)
    found = transfers(blocks(layout), blocks(other))
    assert_same_cells(blocks(layout), blocks(other), found)
    assert_owner_map(layout, blocks(other), found)


@settings(max_examples=60, deadline=None)
@given(layouts(), st.data())
def test_grown_blocks_meet_what_a_cell_by_cell_check_meets(layout, data):
    src = draw_blocks(data, layout)
    dst = draw_blocks(
        data, data.draw(st.sampled_from([layout, regrid(data, layout)]))
    )
    found = transfers(src, dst)
    assert_same_cells(src, dst, found)
    holders = {}
    for key, (_, box) in pieces(dst).items():
        for cell in cells(box):
            holders.setdefault(cell, set()).add(key)
    meets = {
        (src_key, dst_key)
        for src_key, (_, box) in pieces(src).items()
        for cell in cells(box)
        for dst_key in holders.get(cell, ())
    }
    pairs = [(s, d) for s, d, _, _ in found]
    assert len(pairs) == len(set(pairs))
    assert set(pairs) == meets


@settings(max_examples=60, deadline=None)
@given(layouts(), st.data())
def test_one_section_is_its_part_of_all_of_them(layout, data):
    """``blocks(..., section=s)`` is the piece ``s`` of the whole layout,
    and its overlaps are the whole layout's overlaps from ``s``."""
    section = data.draw(st.integers(0, layout.num_sections - 1))
    box = draw_box(data, layout)
    assert pieces(blocks(layout, 2, 1, (0,), section)) == {
        section: pieces(blocks(layout, 2, 1, (0,)))[section]
    }
    assert transfers(blocks(layout, section=section), dense(box)) == [
        t for t in transfers(blocks(layout), dense(box)) if t[0] == section
    ]


def test_grid_order_is_the_first_dimension_slowest():
    layout = ArrayLayout((4, 4), (2, 2), (0,) * 4, ROW_MAJOR, COLUMN_MAJOR)
    found = transfers(blocks(layout), dense(((0, 4), (0, 4))))
    # Column-major grid: (0, 1) is section 2, (1, 0) section 1.
    assert [section for section, _, _, _ in found] == [0, 2, 1, 3]
    assert found[1][2:] == (
        (slice(0, 2), slice(0, 2)), (slice(0, 2), slice(2, 4))
    )
