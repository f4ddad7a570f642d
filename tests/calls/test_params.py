"""Distributed-call parameter specifications (§3.3.1.2, §4.3.1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.arrays.record import ArrayID
from repro.calls.params import (
    CallPlan,
    Constant,
    Index,
    Local,
    Reduce,
    StatusVar,
    normalize_parameters,
)
from repro.pcn.defvar import DefVar


class TestPaperSyntax:
    def test_index_string(self):
        assert normalize_parameters(["index"]) == [Index()]

    def test_status_string(self):
        assert normalize_parameters(["status"]) == [StatusVar()]

    def test_local_tuple(self):
        aid = ArrayID(0, 1)
        assert normalize_parameters([("local", aid)]) == [Local(aid)]

    def test_local_tuple_requires_array_id(self):
        with pytest.raises(ValueError):
            normalize_parameters([("local", "not-an-id")])

    def test_reduce_four_tuple(self):
        [spec] = normalize_parameters([("reduce", "double", 2, "sum")])
        assert spec == Reduce("double", 2, "sum", None)

    def test_reduce_five_tuple_with_out(self):
        out = DefVar("RR")
        [spec] = normalize_parameters([("reduce", "double", 2, "sum", out)])
        assert spec.out is out

    def test_reduce_paper_six_tuple(self):
        """The paper's {"reduce", Type, Length, Mod, Pgm, Var} form."""
        out = DefVar("RR")
        [spec] = normalize_parameters(
            [("reduce", "double", 10, "thismod", "sum", out)]
        )
        assert spec.type_name == "double"
        assert spec.length == 10
        assert spec.out is out


class TestConstants:
    def test_plain_values_are_constants(self):
        specs = normalize_parameters([7, 3.5, "hello", None])
        assert all(isinstance(s, Constant) for s in specs)
        assert [s.value for s in specs] == [7, 3.5, "hello", None]

    def test_numpy_array_constant(self):
        procs = np.array([0, 1, 2])
        [spec] = normalize_parameters([procs])
        assert isinstance(spec, Constant)
        assert spec.value is procs

    def test_other_strings_are_constants(self):
        [spec] = normalize_parameters(["not-a-keyword"])
        assert isinstance(spec, Constant)


class TestValidation:
    def test_at_most_one_status(self):
        with pytest.raises(ValueError, match="at most one"):
            normalize_parameters(["status", "status"])

    def test_reduce_bad_type(self):
        with pytest.raises(ValueError):
            Reduce("quaternion", 1, "sum")

    def test_reduce_bad_length(self):
        with pytest.raises(ValueError):
            Reduce("double", 0, "sum")

    def test_reduce_bad_combine(self):
        with pytest.raises(ValueError):
            Reduce("double", 1, "frobnicate")

    def test_reduce_bad_tuple_arity(self):
        with pytest.raises(ValueError):
            normalize_parameters([("reduce", "double")])


class TestCallPlan:
    """One reading of the list: what each position receives is decided
    here, once, for the wrapper to fill in and PTN to render."""

    def test_status_at(self):
        plan = CallPlan.of([1, "status", 2])
        assert plan.status_at == 1
        assert plan.has_status

    def test_status_at_absent(self):
        plan = CallPlan.of([1, 2])
        assert plan.status_at is None
        assert not plan.has_status

    def test_reductions_in_order(self):
        plan = CallPlan.of(
            [("reduce", "int", 1, "max"), 5, ("reduce", "double", 2, "sum")]
        )
        assert [r.type_name for r in plan.reductions] == ["int", "double"]
        assert plan.reduce_at == (0, 2)

    def test_positions_by_role(self):
        aid = ArrayID(0, 1)
        plan = CallPlan.of(
            ["index", 7, ("local", aid), "status", ("reduce", "int", 1, "sum"),
             ("local", aid), "index"]
        )
        assert plan.index_at == (0, 6)
        assert plan.constant_at == (1,)
        assert plan.local_at == (2, 5)
        assert plan.status_at == 3
        assert plan.reduce_at == (4,)

    def test_reduction_element_types(self):
        plan = CallPlan.of(
            [Reduce(t, 1, "sum") for t in ("int", "double", "char", "complex")]
        )
        assert plan.dtypes == (
            np.dtype(np.int64),
            np.dtype(np.float64),
            np.dtype(np.uint8),
            np.dtype(np.complex128),
        )

    def test_plan_is_frozen(self):
        plan = CallPlan.of(["index"])
        with pytest.raises(AttributeError):
            plan.status_at = 0

    def test_plan_validates_like_normalize(self):
        with pytest.raises(ValueError, match="at most one"):
            CallPlan.of(["status", "status"])
