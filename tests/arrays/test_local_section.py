"""Local sections: flat storage, borders, explicit alloc/free (§3.2.1.3,
§5.1.5-§5.1.6)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrays.local_section import TRACKER, LocalSection, dtype_for


class TestDtypes:
    def test_paper_types(self):
        assert dtype_for("int") == np.int64
        assert dtype_for("double") == np.float64

    def test_complex_extension(self):
        assert dtype_for("complex") == np.complex128

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            dtype_for("float128")


class TestStorageGeometry:
    def test_flat_storage_size_includes_borders(self):
        """§3.2.1.3: size = product of bordered local dims."""
        section = LocalSection("double", (4, 2), (2, 2, 1, 1), "row")
        assert section.local_dims_plus == (8, 4)
        assert section.flat().size == 32

    def test_interior_shape(self):
        section = LocalSection("double", (4, 2), (2, 2, 1, 1), "row")
        assert section.interior().shape == (4, 2)

    def test_interior_is_a_view_of_storage(self):
        section = LocalSection("double", (2, 2), (1, 1, 1, 1), "row")
        section.interior()[0, 0] = 9.0
        assert 9.0 in section.flat()

    def test_no_borders(self):
        section = LocalSection("int", (3,), (0, 0), "row")
        assert section.full().shape == (3,)
        assert section.interior().shape == (3,)

    def test_row_major_flat_layout(self):
        section = LocalSection("double", (2, 3), (0, 0, 0, 0), "row")
        section.interior()[...] = np.arange(6).reshape(2, 3)
        assert list(section.flat()) == [0, 1, 2, 3, 4, 5]

    def test_column_major_flat_layout(self):
        """The user chooses Fortran-style indexing (§3.2.1.3)."""
        section = LocalSection("double", (2, 3), (0, 0, 0, 0), "column")
        section.interior()[...] = np.arange(6).reshape(2, 3)
        assert list(section.flat()) == [0, 3, 1, 4, 2, 5]

    def test_read_write_elements(self):
        section = LocalSection("double", (2, 2), (1, 1, 1, 1), "row")
        section.write((1, 0), 5.5)
        assert section.read((1, 0)) == 5.5

    def test_interior_starts_zeroed(self):
        section = LocalSection("double", (4,), (1, 1), "row")
        assert np.all(section.interior() == 0.0)

    def test_bad_border_count(self):
        with pytest.raises(ValueError):
            LocalSection("double", (2, 2), (1, 1), "row")

    @pytest.mark.parametrize(
        "spelling, order",
        [("row", "C"), ("C", "C"), ("c", "C"),
         ("column", "F"), ("Fortran", "F"), ("fortran", "F")],
    )
    def test_storage_order_follows_indexing_spellings(self, spelling, order):
        """§3.2.1.4 accepts "C" for row-major and "Fortran" for
        column-major; the storage order follows whichever is spelled."""
        section = LocalSection("double", (2, 3), (0,) * 4, spelling)
        assert section.order == order
        section.interior()[...] = np.arange(6).reshape(2, 3)
        expected = [0, 1, 2, 3, 4, 5] if order == "C" else [0, 3, 1, 4, 2, 5]
        assert list(section.flat()) == expected

    def test_unknown_indexing_spelling_rejected(self):
        live_before = TRACKER.live
        with pytest.raises(ValueError, match="indexing"):
            LocalSection("double", (2, 3), (0,) * 4, "diagonal")
        assert TRACKER.live == live_before  # nothing allocated


class TestBorderSeparation:
    def test_borders_not_visible_through_interior(self):
        """§3.2.1.3: the task-parallel level sees only interior data."""
        section = LocalSection("double", (2, 2), (1, 1, 1, 1), "row")
        section.full()[0, :] = 99.0  # data-parallel writes a border row
        assert np.all(section.interior() != 99.0)

    def test_reallocate_with_borders_preserves_interior(self):
        section = LocalSection("double", (3, 3), (0, 0, 0, 0), "row")
        section.interior()[...] = np.arange(9).reshape(3, 3)
        bigger = section.reallocate_with_borders((2, 2, 2, 2))
        assert bigger.local_dims_plus == (7, 7)
        assert np.array_equal(
            bigger.interior(), np.arange(9).reshape(3, 3)
        )

    def test_reallocate_preserves_order(self):
        section = LocalSection("double", (2, 2), (1, 1, 1, 1), "column")
        replacement = section.reallocate_with_borders((0, 0, 0, 0))
        assert replacement.order == "F"


class TestExplicitLifetime:
    def test_free_releases_tracking(self):
        """The build/free primitives (§5.1.6): explicit deallocation, and
        the no-leak invariant the tracker checks."""
        live_before = TRACKER.live
        section = LocalSection("double", (8,), (0, 0), "row")
        assert TRACKER.live == live_before + 1
        section.free()
        assert TRACKER.live == live_before
        assert section.is_freed

    def test_double_free_is_safe(self):
        section = LocalSection("double", (2,), (0, 0), "row")
        section.free()
        section.free()  # no error, no double-count
        assert section.is_freed

    def test_use_after_free_raises(self):
        """§5.1.6: every use must be preceded by a data guard — using a
        freed pseudo-definitional array is an error."""
        section = LocalSection("double", (2,), (0, 0), "row")
        section.free()
        with pytest.raises(ValueError, match="freed"):
            section.interior()
        with pytest.raises(ValueError, match="freed"):
            section.flat()
        with pytest.raises(ValueError, match="freed"):
            section.full()
        with pytest.raises(ValueError, match="freed"):
            section.read((0,))
        with pytest.raises(ValueError, match="freed"):
            section.write((0,), 1.0)

    def test_nbytes(self):
        section = LocalSection("double", (4,), (1, 1), "row")
        assert section.nbytes() == 6 * 8
        section.free()


class TestViewLifetime:
    """The views are made once, when the storage is, and live as long as
    it does (§3.2.1.3: the geometry is fixed from build to free)."""

    @pytest.mark.parametrize("order", ["row", "column"])
    def test_views_are_built_once_and_alias_storage(self, order):
        section = LocalSection("double", (3, 2), (1, 2, 0, 1), order)
        assert section.full() is section.full()
        assert section.interior() is section.interior()
        assert np.shares_memory(section.full(), section.storage)
        assert np.shares_memory(section.interior(), section.storage)
        section.write((2, 1), 7.0)
        assert section.read((2, 1)) == 7.0
        assert section.full()[3, 1] == 7.0  # offset by the leading borders
        assert np.count_nonzero(section.flat()) == 1
        section.free()

    def test_reallocate_hands_out_views_of_the_new_buffer(self):
        section = LocalSection("double", (2, 2), (0, 0, 0, 0), "column")
        section.interior()[...] = [[1.0, 2.0], [3.0, 4.0]]
        bigger = section.reallocate_with_borders((1, 1, 1, 1))
        for view in (bigger.full(), bigger.interior()):
            assert np.shares_memory(view, bigger.storage)
            assert not np.shares_memory(view, section.storage)
        bigger.interior()[0, 0] = 9.0
        assert section.interior()[0, 0] == 1.0
        section.free()
        assert bigger.interior()[1, 1] == 4.0  # outlives the old buffer
        bigger.free()


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(1, 4), min_size=1, max_size=3),
    st.integers(0, 2),
    st.sampled_from(["row", "column"]),
)
def test_property_interior_embedding(local_dims, border, order):
    """Whatever is written through the interior view is read back exactly,
    for any border size and either ordering."""
    borders = (border,) * (2 * len(local_dims))
    section = LocalSection("double", local_dims, borders, order)
    data = np.random.default_rng(0).standard_normal(tuple(local_dims))
    section.interior()[...] = data
    assert np.array_equal(section.interior(), data)
    # Every non-interior cell is untouched (still zero).
    outside = np.ones(section.local_dims_plus, dtype=bool)
    outside[tuple(slice(border, border + ld) for ld in local_dims)] = False
    assert not np.any(section.full()[outside])
    section.free()
