"""Utility library procedures (§C)."""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro.arrays import am_user, am_util
from repro.arrays.record import ArrayID
from repro.pcn.defvar import DefVar
from repro.pcn.process import spawn
from repro.vp.machine import Machine


class TestArrayBuilders:
    def test_tuple_to_int_array(self):
        out = am_util.tuple_to_int_array((3, 1, 4))
        assert out.dtype == np.int64
        assert list(out) == [3, 1, 4]

    def test_node_array_pattern(self):
        """§C.2: [first, first+stride, first+2*stride, ...]."""
        assert list(am_util.node_array(4, 2, 3)) == [4, 6, 8]

    def test_node_array_count_zero(self):
        assert list(am_util.node_array(0, 1, 0)) == []

    def test_node_array_negative_count(self):
        with pytest.raises(ValueError):
            am_util.node_array(0, 1, -1)

    def test_processors_of(self):
        m = Machine(5)
        assert list(am_util.processors_of(m)) == [0, 1, 2, 3, 4]


class TestLoadAll:
    def test_load_am_defines_done(self):
        m = Machine(2)
        done = DefVar("Done")
        out = am_util.load_all(m, "am", done)
        assert out is done
        assert done.data()
        assert m.server.provides("create_array")

    def test_unknown_module_rejected(self):
        with pytest.raises(ValueError):
            am_util.load_all(Machine(1), "mystery")

    def test_not_loaded_is_a_typed_error(self):
        """§B.3: before ``load "am"`` a request that needs the manager
        fails naming it — one with no server hop to fail for it included."""
        with pytest.raises(RuntimeError, match="array manager not loaded"):
            am_user.halo_plan(Machine(2), ArrayID(0, 1))


class TestAtomicPrint:
    def test_single_line_with_values(self):
        buf = io.StringIO()
        am_util.atomic_print("The value of X is ", 1, ".", file=buf)
        assert buf.getvalue() == "The value of X is 1.\n"

    def test_waits_for_defvars(self):
        """§C.4: the line prints only after all referenced definition
        variables become defined."""
        buf = io.StringIO()
        x = DefVar("X")
        proc = spawn(am_util.atomic_print, "X=", x, file=buf)
        assert buf.getvalue() == ""
        x.define(9)
        proc.join(timeout=5)
        assert buf.getvalue() == "X=9\n"

    def test_concurrent_prints_do_not_interleave(self):
        buf = io.StringIO()
        procs = [
            spawn(am_util.atomic_print, f"line-{i}-", "a" * 50, file=buf)
            for i in range(8)
        ]
        for p in procs:
            p.join(timeout=5)
        lines = buf.getvalue().splitlines()
        assert len(lines) == 8
        for line in lines:
            assert line.endswith("a" * 50)


class TestCombiners:
    def test_max(self):
        assert am_util.max_combine(3, 5) == 5

    def test_max_arrays(self):
        out = am_util.max_combine(np.array([1, 9]), np.array([5, 2]))
        assert list(out) == [5, 9]

    def test_min(self):
        assert am_util.min_combine(3, 5) == 3

    def test_sum(self):
        assert am_util.sum_combine(2, 3) == 5
