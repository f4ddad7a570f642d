"""The PTN transformation renderer (§5.2.4, §F), pinned against the
thesis' worked examples xform_ex2/3/4."""

from __future__ import annotations

import pytest

from repro.arrays.record import ArrayID
from repro.pcn.defvar import DefVar
from repro.pcn.ptn import transform_distributed_call


AA = ArrayID(0, 7)


class TestXformEx2:
    """§5.2.4 'Distributed call with index and local-section parameters':
    am_user:distributed_call(Processors, [], "cpgm",
        {Processors, P, "index", {"local", AA}}, [], [], Status)."""

    @pytest.fixture
    def result(self):
        return transform_distributed_call(
            ["Processors", "P", "index", ("local", AA)],
            module="xform_ex2",
            program="cpgm",
        )

    def test_call_block_invokes_do_all_with_wrapper_and_combine(self, result):
        assert "am_util:do_all" in result.call_block
        assert result.wrapper_name in result.call_block
        assert result.combine_name in result.call_block

    def test_status_unpacked_from_singleton_tuple(self, result):
        # "the status variable returned by the do_all call (_l1) is a
        # tuple with a single element whose value is used to set Status"
        assert "Status = _l1[0]" in result.call_block
        assert "_l1[1]" not in result.call_block

    def test_second_level_calls_find_local_then_program(self, result):
        body = result.wrapper_second
        assert "am_user:find_local" in body
        assert "cpgm(" in body
        assert body.index("find_local") < body.index("cpgm(")

    def test_index_forwarded(self, result):
        assert "Index" in result.wrapper_second

    def test_result_tuple_is_singleton(self, result):
        assert "make_tuple(1,_l1)" in result.wrapper_second

    def test_combine_uses_default_max(self, result):
        # "the combine program combines the single-element tuples ...
        # using the default status-combining program am_util:max"
        assert "am_util:max(C_in1[0],C_in2[0],C_out[0])" in result.combine
        assert "length(C_in1)==1" in result.combine

    def test_failure_branches_yield_invalid(self, result):
        assert "_l1 = {1}" in result.wrapper_first
        assert "_l1 = {1}" in result.wrapper_second
        assert "C_out = {1}" in result.combine


class TestXformEx3:
    """§5.2.4 with an added "status" parameter."""

    @pytest.fixture
    def result(self):
        return transform_distributed_call(
            ["Processors", "P", ("local", AA), "status"],
            module="xform_ex3",
            program="cpgm",
        )

    def test_local_status_declared(self, result):
        assert "int local_status" in result.wrapper_second

    def test_program_receives_local_status(self, result):
        assert "local_status)" in result.wrapper_second

    def test_status_slot_carries_program_status(self, result):
        assert "_l1[0] = local_status" in result.wrapper_second

    def test_still_singleton_tuple(self, result):
        assert "make_tuple(1,_l1)" in result.wrapper_second


class TestXformEx4:
    """§5.2.4 with status + one reduction variable of length 10."""

    @pytest.fixture
    def result(self):
        rr = DefVar("RR")

        def combine_it(a, b):
            return a + b

        return transform_distributed_call(
            [
                "Processors",
                "P",
                ("local", AA),
                "status",
                ("reduce", "double", 10, combine_it, rr),
            ],
            module="xform_ex4",
            program="cpgm",
            combine_module="am_util",
            combine_program="max",
        )

    def test_two_element_tuple(self, result):
        # "the status variable returned by the do_all call is a tuple
        # with two elements"
        assert "make_tuple(2,_l1)" in result.wrapper_second
        assert "length(C_in1)==2" in result.combine

    def test_reduction_unpacked_in_call_block(self, result):
        assert "RR = _l1[1]" in result.call_block

    def test_reduction_length_travels_through_first_level(self, result):
        # "The correct value, 10, is passed from the do_all call to the
        # first-level wrapper program as part of the parameters tuple."
        assert "10" in result.call_block
        assert "_l8a" in result.wrapper_first
        assert "_l8a" in result.wrapper_second

    def test_local_reduction_buffer_declared_with_length(self, result):
        assert "double _l7a[_l8a]" in result.wrapper_second

    def test_combine_merges_both_slots_with_their_programs(self, result):
        assert "am_util:max(C_in1[0],C_in2[0],C_out[0])" in result.combine
        assert "combine_it(C_in1[1],C_in2[1],C_out[1])" in result.combine


class TestGeneralShape:
    def test_unique_program_names_across_transformations(self):
        a = transform_distributed_call(["index"])
        b = transform_distributed_call(["index"])
        assert a.wrapper_name != b.wrapper_name
        assert a.combine_name != b.combine_name

    def test_programs_concatenation(self):
        result = transform_distributed_call(["index"])
        text = result.programs()
        assert result.wrapper_first in text
        assert result.wrapper_second in text
        assert result.combine in text

    def test_multiple_reductions(self):
        result = transform_distributed_call(
            [
                ("reduce", "double", 2, "sum"),
                ("reduce", "int", 1, "min"),
            ]
        )
        assert "make_tuple(3,_l1)" in result.wrapper_second
        assert "double _l7a[_l8a]" in result.wrapper_second
        assert "int _l7b[_l8b]" in result.wrapper_second
        assert "sum(C_in1[1]" in result.combine
        assert "min(C_in1[2]" in result.combine

    def test_each_array_rendered_under_its_own_name(self):
        result = transform_distributed_call(
            [("local", ArrayID(0, 1)), ("local", ArrayID(0, 2)), "index",
             ("local", ArrayID(0, 1))]
        )
        assert "{A0_1,A0_2,_,A0_1}" in result.call_block

    def test_reduction_declared_with_its_type(self):
        result = transform_distributed_call(
            [("reduce", "char", 4, "max"), ("reduce", "complex", 2, "sum")]
        )
        assert "char _l7a[_l8a]" in result.wrapper_second
        assert "complex _l7b[_l8b]" in result.wrapper_second

    def test_no_status_packs_zero(self):
        result = transform_distributed_call(["index"])
        assert "_l1[0] = 0" in result.wrapper_second
