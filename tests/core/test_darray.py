"""The pythonic DistributedArray handle."""

from __future__ import annotations

import numpy as np
import pytest

from repro.status import ArrayNotFoundError, InvalidParameterError
from repro.core.darray import DistributedArray


class TestCreation:
    def test_create_with_defaults(self, rt8):
        a = rt8.array("double", (8, 8))
        assert a.dims == (8, 8)
        assert np.prod(a.grid) == 8
        a.free()

    def test_create_explicit_distrib(self, rt8):
        a = rt8.array("double", (16, 4), distrib=[("block", 8), "*"])
        assert a.grid == (8, 1)
        assert a.local_dims == (2, 4)
        a.free()

    def test_create_failure_raises(self, rt8):
        with pytest.raises(InvalidParameterError):
            rt8.array("double", (7,), distrib=["block"])  # 8 ∤ 7

    def test_subset_of_processors(self, rt8):
        a = rt8.array("double", (4,), processors=[2, 5], distrib=["block"])
        assert a.local_dims == (2,)
        a.free()

    def test_creator_outside_distribution_and_not_processor_zero(self, rt8):
        """Regression: the handle is built from, and used through, the
        record on the creating processor — processor 0 holds none here.
        Before, ``create`` raised ArrayNotFoundError *after* creating the
        array, and leaked it."""
        from repro.arrays.manager import _records, get_array_manager

        machine = rt8.machine
        a = DistributedArray.create(
            machine, "double", (8,), [4, 5], ["block"], on_processor=3
        )
        assert a.array_id.creating_processor == 3
        assert (a.dims, a.grid, a.local_dims) == ((8,), (2,), (4,))
        holders = [
            p for p in range(8) if a.array_id in _records(machine.processor(p))
        ]
        assert holders == [3, 4, 5]
        a.from_numpy(np.arange(8.0))
        a[6] = -1.0
        assert a[6] == -1.0 and a[1] == 1.0
        assert a.info("processors") == [4, 5]
        assert a.to_numpy().tolist() == [0, 1, 2, 3, 4, 5, -1, 7]
        a.verify_borders([1, 1])
        assert a.layout.borders == (1, 1)
        a.free()
        assert not any(
            a.array_id in _records(machine.processor(p)) for p in range(8)
        )
        assert get_array_manager(machine).durability_state(a.array_id) is None

    @pytest.mark.parametrize(
        "owners, creator", [([0, 1], 3), ([4, 5], 3), ([2, 3, 4], 3)]
    )
    def test_handle_outlives_its_creating_processor(
        self, rt8, owners, creator
    ):
        """Regression: every handle operation was pinned to the creating
        processor, so killing it — outside the distribution, where it held
        no data, or inside it and recovered — left the handle unusable."""
        from repro.arrays import install_recovery
        from repro.arrays.manager import _records, get_array_manager

        machine = rt8.machine
        install_recovery(machine)
        a = DistributedArray.create(
            machine, "double", (12,), owners, ["block"],
            on_processor=creator, replication=1,
        )
        a.from_numpy(np.arange(12.0))
        machine.fail(creator)
        assert a[7] == 7.0
        a[7] = -7.0
        assert a.read_region([(6, 9)]).tolist() == [6.0, -7.0, 8.0]
        assert creator not in a.info("processors")
        a.restore(a.checkpoint())
        a.free()
        assert get_array_manager(machine).durability_state(a.array_id) is None
        assert not any(
            a.array_id in _records(machine.processor(p))
            for p in range(8) if p != creator
        )

    def test_context_manager_frees(self, rt8):
        with rt8.array("double", (8,)) as a:
            a[0] = 1.0
        with pytest.raises(ArrayNotFoundError):
            a[0]


class TestElementAccess:
    def test_getset_multidim(self, rt4):
        with rt4.array("double", (4, 4), distrib=("block", ("block", 4))) as a:
            a[1, 2] = 6.25
            assert a[1, 2] == 6.25

    def test_getset_1d_scalar_index(self, rt4):
        with rt4.array("double", (8,), distrib=["block"]) as a:
            a[3] = 1.5
            assert a[3] == 1.5

    def test_out_of_range_raises(self, rt4):
        with rt4.array("double", (8,), distrib=["block"]) as a:
            with pytest.raises(InvalidParameterError):
                a[99]

    def test_use_after_free_raises(self, rt4):
        a = rt4.array("double", (8,), distrib=["block"])
        a.free()
        with pytest.raises(ArrayNotFoundError):
            a[0] = 1.0
        with pytest.raises(ArrayNotFoundError):
            a.info("dimensions")


class TestInfo:
    def test_info_selectors(self, rt4):
        with rt4.array("int", (8, 8), distrib=(("block", 2), ("block", 2))) as a:
            assert a.info("type") == "int"
            assert a.info("dimensions") == [8, 8]
            assert a.info("grid_dimensions") == [2, 2]
            assert a.info("local_dimensions") == [4, 4]

    def test_repr(self, rt4):
        a = rt4.array("double", (8,), distrib=["block"])
        assert "double" in repr(a)
        a.free()
        assert "FREED" in repr(a)


class TestBulkTransfer:
    def test_roundtrip_row_major(self, rt8):
        data = np.arange(64, dtype=float).reshape(8, 8)
        with rt8.array("double", (8, 8)) as a:
            a.from_numpy(data)
            assert np.array_equal(a.to_numpy(), data)

    def test_roundtrip_matches_element_reads(self, rt4):
        data = np.arange(16, dtype=float).reshape(4, 4)
        with rt4.array(
            "double", (4, 4), distrib=(("block", 2), ("block", 2))
        ) as a:
            a.from_numpy(data)
            for i in range(4):
                for j in range(4):
                    assert a[i, j] == data[i, j]

    def test_roundtrip_int(self, rt4):
        data = np.arange(8).reshape(2, 4)
        with rt4.array(
            "int", (2, 4), distrib=(("block", 2), ("block", 2))
        ) as a:
            a.from_numpy(data)
            assert a.to_numpy().dtype == np.int64
            assert np.array_equal(a.to_numpy(), data)

    def test_shape_mismatch_rejected(self, rt4):
        with rt4.array("double", (4, 4)) as a:
            with pytest.raises(ValueError):
                a.from_numpy(np.zeros((3, 3)))

    def test_bulk_transfer_with_borders(self, rt4):
        data = np.arange(16, dtype=float).reshape(4, 4)
        with rt4.array(
            "double", (4, 4), distrib=(("block", 2), ("block", 2)),
            borders=[1, 1, 1, 1],
        ) as a:
            a.from_numpy(data)
            assert np.array_equal(a.to_numpy(), data)


class TestVerifyBorders:
    def test_verify_updates_layout(self, rt4):
        with rt4.array(
            "double", (4, 4), distrib=(("block", 2), ("block", 2))
        ) as a:
            data = np.arange(16, dtype=float).reshape(4, 4)
            a.from_numpy(data)
            a.verify_borders([1, 1, 2, 2])
            assert a.layout.borders == (1, 1, 2, 2)
            assert np.array_equal(a.to_numpy(), data)

    def test_verify_indexing_mismatch_raises(self, rt4):
        with rt4.array(
            "double", (4, 4), distrib=(("block", 2), ("block", 2))
        ) as a:
            with pytest.raises(InvalidParameterError):
                a.verify_borders([0, 0, 0, 0], indexing="column")


class TestRuntimeHelpers:
    def test_split_processors_disjoint(self, rt8):
        groups = rt8.split_processors(4)
        flat = [int(p) for g in groups for p in g]
        assert sorted(flat) == list(range(8))

    def test_split_uneven_rejected(self, rt8):
        with pytest.raises(ValueError):
            rt8.split_processors(3)

    def test_processors_pattern(self, rt8):
        assert list(rt8.processors(1, 3, stride=2)) == [1, 3, 5]

    def test_call_accepts_darray_directly(self, rt4):
        """rt.call converts DistributedArray parameters to Local specs."""
        with rt4.array("double", (8,), distrib=["block"]) as a:

            def program(ctx, sec):
                sec.interior()[:] = ctx.index

            result = rt4.call(rt4.all_processors(), program, [a])
            assert int(result.status) == 0
            assert a[0] == 0.0 and a[7] == 3.0


class TestColumnMajorBulkTransfer:
    def test_roundtrip_column_major(self, rt4):
        """The bulk gather/scatter path must respect column-major grid
        indexing (Fig 3.8 placement applies to sections too)."""
        data = np.arange(16, dtype=float).reshape(4, 4)
        with DistributedArray.create(
            rt4.machine, "double", (4, 4), rt4.all_processors(),
            (("block", 2), ("block", 2)), indexing="column",
        ) as a:
            a.from_numpy(data)
            assert np.array_equal(a.to_numpy(), data)
            # cross-check against element reads
            for i in range(4):
                for j in range(4):
                    assert a[i, j] == data[i, j]

    def test_column_major_bulk_matches_row_major_content(self, rt4):
        data = np.random.default_rng(0).standard_normal((4, 4))
        outs = {}
        for indexing in ("row", "column"):
            with DistributedArray.create(
                rt4.machine, "double", (4, 4), rt4.all_processors(),
                (("block", 2), ("block", 2)), indexing=indexing,
            ) as a:
                a.from_numpy(data)
                outs[indexing] = a.to_numpy()
        assert np.array_equal(outs["row"], outs["column"])


class TestIntArraysEndToEnd:
    def test_int_array_through_distributed_call(self, rt4):
        with rt4.array("int", (8,), distrib=["block"]) as a:

            def program(ctx, sec):
                sec.interior()[:] = ctx.index * 100

            rt4.call(rt4.all_processors(), program, [a])
            values = a.to_numpy()
            assert values.dtype == np.int64
            assert list(values) == [0, 0, 100, 100, 200, 200, 300, 300]
