"""The SPMD linear-algebra library (§D), validated against NumPy/SciPy."""

from __future__ import annotations

import numpy as np
import pytest

from repro.arrays import am_user, am_util
from repro.calls import Local, Reduce, distributed_call
from repro.spmd import linalg
from repro.spmd.context import OutCell
from repro.status import Status
from repro.vp.machine import Machine

scipy_linalg = pytest.importorskip("scipy.linalg")


@pytest.fixture
def m4():
    machine = Machine(4)
    am_util.load_all(machine)
    return machine


def procs(machine):
    return am_util.node_array(0, 1, machine.num_nodes)


def make_vector(machine, n, values=None):
    p = procs(machine)
    aid, st = am_user.create_array(machine, "double", (n,), p, ["block"])
    assert st is Status.OK
    if values is not None:
        assert am_user.write_region(machine, aid, [(0, n)], values) is (
            Status.OK
        )
    return aid


def gather_vector(machine, aid, n):
    return np.array(
        [am_user.read_element(machine, aid, (i,))[0] for i in range(n)]
    )


def make_matrix(machine, n, values):
    p = procs(machine)
    aid, st = am_user.create_array(
        machine, "double", (n, n), p, [("block", len(p)), "*"]
    )
    assert st is Status.OK
    status = am_user.write_region(machine, aid, [(0, n), (0, n)], values)
    assert status is Status.OK
    return aid


def gather_matrix(machine, aid, n):
    out = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = am_user.read_element(machine, aid, (i, j))[0]
    return out


class TestVectorOps:
    def test_vec_fill_and_affine(self, m4):
        n = 8
        v = make_vector(m4, n)
        res = distributed_call(
            m4, procs(m4),
            lambda ctx, sec: linalg.vec_affine(ctx, 2.0, 1.0, sec),
            [Local(v)],
        )
        assert res.status is Status.OK
        assert list(gather_vector(m4, v, n)) == [2.0 * i + 1 for i in range(n)]

    def test_vec_axpy(self, m4):
        n = 8
        x = make_vector(m4, n, np.arange(n, dtype=float))
        y = make_vector(m4, n, np.ones(n))
        res = distributed_call(
            m4, procs(m4),
            lambda ctx, xs, ys: linalg.vec_axpy(ctx, 3.0, xs, ys),
            [Local(x), Local(y)],
        )
        assert res.status is Status.OK
        assert np.allclose(gather_vector(m4, y, n), 3.0 * np.arange(n) + 1.0)

    def test_vec_scale(self, m4):
        n = 8
        x = make_vector(m4, n, np.arange(n, dtype=float))
        distributed_call(
            m4, procs(m4),
            lambda ctx, xs: linalg.vec_scale(ctx, -2.0, xs),
            [Local(x)],
        )
        assert np.allclose(gather_vector(m4, x, n), -2.0 * np.arange(n))

    def test_vec_dot_matches_numpy(self, m4):
        n = 8
        rng = np.random.default_rng(3)
        a_vals, b_vals = rng.standard_normal((2, n))
        a = make_vector(m4, n, a_vals)
        b = make_vector(m4, n, b_vals)

        res = distributed_call(
            m4, procs(m4),
            lambda ctx, xs, ys, out: linalg.vec_dot(ctx, xs, ys, out),
            [Local(a), Local(b), Reduce("double", 1, "max")],
        )
        assert res.reductions[0] == pytest.approx(float(a_vals @ b_vals))

    def test_vec_norm2(self, m4):
        n = 8
        vals = np.arange(n, dtype=float)
        v = make_vector(m4, n, vals)
        res = distributed_call(
            m4, procs(m4),
            lambda ctx, xs, out: linalg.vec_norm2(ctx, xs, out),
            [Local(v), Reduce("double", 1, "max")],
        )
        assert res.reductions[0] == pytest.approx(float(np.linalg.norm(vals)))

    def test_vec_copy_and_pointwise(self, m4):
        n = 8
        x = make_vector(m4, n, np.full(n, 3.0))
        y = make_vector(m4, n)
        distributed_call(
            m4, procs(m4),
            lambda ctx, xs, ys: (
                linalg.vec_copy(ctx, xs, ys),
                linalg.vec_pointwise_mul(ctx, xs, ys),
            ),
            [Local(x), Local(y)],
        )
        assert np.allclose(gather_vector(m4, y, n), 9.0)

    def test_vec_sum_with_outcell(self, m4):
        """OutCell variant used when called outside a distributed call."""
        ctx_results = []

        def program(ctx, sec):
            out = OutCell("sum")
            linalg.vec_fill(ctx, 2.0, sec)
            linalg.vec_sum(ctx, sec, out)
            ctx_results.append(out.value)

        v = make_vector(m4, 8)
        distributed_call(m4, procs(m4), program, [Local(v)])
        assert ctx_results.count(16.0) == 4


class TestMatrixOps:
    def test_matvec_matches_numpy(self, m4):
        n = 8
        rng = np.random.default_rng(5)
        a_vals = rng.standard_normal((n, n))
        x_vals = rng.standard_normal(n)
        a = make_matrix(m4, n, a_vals)
        x = make_vector(m4, n, x_vals)
        y = make_vector(m4, n)
        res = distributed_call(
            m4, procs(m4),
            lambda ctx, am, xm, ym: linalg.mat_vec(ctx, am, xm, ym),
            [Local(a), Local(x), Local(y)],
        )
        assert res.status is Status.OK
        assert np.allclose(gather_vector(m4, y, n), a_vals @ x_vals)

    def test_mat_transpose_vec(self, m4):
        n = 8
        rng = np.random.default_rng(6)
        a_vals = rng.standard_normal((n, n))
        x_vals = rng.standard_normal(n)
        a = make_matrix(m4, n, a_vals)
        x = make_vector(m4, n, x_vals)
        y = make_vector(m4, n)
        distributed_call(
            m4, procs(m4),
            lambda ctx, am, xm, ym: linalg.mat_transpose_vec(ctx, am, xm, ym),
            [Local(a), Local(x), Local(y)],
        )
        assert np.allclose(gather_vector(m4, y, n), a_vals.T @ x_vals)

    def test_mat_fill_random_deterministic(self, m4):
        n = 8
        a1 = make_matrix(m4, n, np.zeros((n, n)))
        a2 = make_matrix(m4, n, np.zeros((n, n)))
        for aid in (a1, a2):
            distributed_call(
                m4, procs(m4),
                lambda ctx, am: linalg.mat_fill_random(ctx, 11, 1.0, am),
                [Local(aid)],
            )
        assert np.array_equal(
            gather_matrix(m4, a1, n), gather_matrix(m4, a2, n)
        )


class TestLU:
    def lu_setup(self, m4, n=8, seed=2):
        a = make_matrix(m4, n, np.zeros((n, n)))
        distributed_call(
            m4, procs(m4),
            lambda ctx, am: linalg.mat_diagonally_dominant(ctx, seed, n, am),
            [Local(a)],
        )
        a_vals = gather_matrix(m4, a, n)
        return a, a_vals

    def test_lu_factors_match_scipy(self, m4):
        n = 8
        a, a_vals = self.lu_setup(m4, n)
        res = distributed_call(
            m4, procs(m4),
            lambda ctx, am: linalg.lu_decompose(ctx, n, am),
            [Local(a)],
        )
        assert res.status is Status.OK
        lu = gather_matrix(m4, a, n)
        lower = np.tril(lu, -1) + np.eye(n)
        upper = np.triu(lu)
        assert np.allclose(lower @ upper, a_vals, atol=1e-9)

    def test_lu_solve_matches_numpy(self, m4):
        n = 8
        a, a_vals = self.lu_setup(m4, n, seed=9)
        rng = np.random.default_rng(1)
        b_vals = rng.standard_normal(n)
        b = make_vector(m4, n, b_vals)
        x = make_vector(m4, n)

        def program(ctx, am, bm, xm):
            linalg.lu_decompose(ctx, n, am)
            linalg.lu_solve(ctx, n, am, bm, xm)

        res = distributed_call(
            m4, procs(m4), program, [Local(a), Local(b), Local(x)]
        )
        assert res.status is Status.OK
        assert np.allclose(
            gather_vector(m4, x, n), np.linalg.solve(a_vals, b_vals),
            atol=1e-8,
        )
        # b unchanged (§ lu_solve postcondition)
        assert np.allclose(gather_vector(m4, b, n), b_vals)


class TestIterative:
    def test_jacobi_converges(self, m4):
        n = 8
        a = make_matrix(m4, n, np.zeros((n, n)))
        distributed_call(
            m4, procs(m4),
            lambda ctx, am: linalg.mat_diagonally_dominant(ctx, 4, n, am),
            [Local(a)],
        )
        a_vals = gather_matrix(m4, a, n)
        b_vals = np.arange(1.0, n + 1)
        b = make_vector(m4, n, b_vals)
        x = make_vector(m4, n)

        res = distributed_call(
            m4, procs(m4),
            lambda ctx, am, bm, xm, r: linalg.jacobi_iterate(
                ctx, n, 50, am, bm, xm, r
            ),
            [Local(a), Local(b), Local(x), Reduce("double", 1, "max")],
        )
        assert res.reductions[0] < 1e-8
        assert np.allclose(
            gather_vector(m4, x, n), np.linalg.solve(a_vals, b_vals),
            atol=1e-6,
        )

    def test_power_method_dominant_eigenvalue(self, m4):
        n = 8
        rng = np.random.default_rng(8)
        base = rng.standard_normal((n, n))
        sym = 0.5 * (base + base.T) + n * np.eye(n)  # dominant positive eig
        a = make_matrix(m4, n, sym)
        x = make_vector(m4, n, np.ones(n))
        res = distributed_call(
            m4, procs(m4),
            lambda ctx, am, xm, out: linalg.power_method(ctx, n, 60, am, xm, out),
            [Local(a), Local(x), Reduce("double", 1, "max")],
        )
        expected = float(np.max(np.abs(np.linalg.eigvalsh(sym))))
        assert res.reductions[0] == pytest.approx(expected, rel=1e-6)
