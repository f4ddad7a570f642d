"""QR, conjugate gradient, and matrix-matrix operations (§D extensions)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.arrays import am_user, am_util
from repro.calls import Local, Reduce, distributed_call
from repro.spmd import linalg
from repro.status import Status
from repro.vp.machine import Machine


@pytest.fixture
def m4():
    machine = Machine(4)
    am_util.load_all(machine)
    return machine


def procs(machine):
    return am_util.node_array(0, 1, machine.num_nodes)


def scatter_matrix(machine, n, values):
    p = procs(machine)
    aid, st = am_user.create_array(
        machine, "double", (n, n), p, [("block", len(p)), "*"]
    )
    assert st is Status.OK
    status = am_user.write_region(machine, aid, [(0, n), (0, n)], values)
    assert status is Status.OK
    return aid


def gather_matrix(machine, aid, n):
    out, status = am_user.read_region(machine, aid, [(0, n), (0, n)])
    assert status is Status.OK
    return out


def scatter_vector(machine, n, values):
    p = procs(machine)
    aid, st = am_user.create_array(machine, "double", (n,), p, ["block"])
    assert st is Status.OK
    assert am_user.write_region(machine, aid, [(0, n)], values) is Status.OK
    return aid


def gather_vector(machine, aid, n):
    return np.array(
        [am_user.read_element(machine, aid, (i,))[0] for i in range(n)]
    )


class TestQR:
    def make_spd_free_matrix(self, m4, n=8, seed=3):
        rng = np.random.default_rng(seed)
        a_vals = rng.standard_normal((n, n)) + n * np.eye(n)
        return scatter_matrix(m4, n, a_vals), a_vals

    def test_qr_orthonormal_and_reconstructs(self, m4):
        n = 8
        aid, a_vals = self.make_spd_free_matrix(m4)

        collected = {}

        def program(ctx, q_sec):
            r = np.zeros((n, n))
            linalg.qr_decompose(ctx, n, q_sec, r)
            collected[ctx.index] = r

        res = distributed_call(m4, procs(m4), program, [Local(aid)])
        assert res.status is Status.OK
        q = gather_matrix(m4, aid, n)
        # every copy computed the identical replicated R
        rs = list(collected.values())
        for r in rs[1:]:
            assert np.allclose(r, rs[0])
        r = rs[0]
        assert np.allclose(q.T @ q, np.eye(n), atol=1e-9)
        assert np.allclose(q @ r, a_vals, atol=1e-9)
        assert np.allclose(r, np.triu(r))

    def test_qr_solve_matches_numpy(self, m4):
        n = 8
        aid, a_vals = self.make_spd_free_matrix(m4, seed=5)
        rng = np.random.default_rng(0)
        b_vals = rng.standard_normal(n)
        b = scatter_vector(m4, n, b_vals)
        x = scatter_vector(m4, n, np.zeros(n))

        def program(ctx, q_sec, b_sec, x_sec):
            r = np.zeros((n, n))
            linalg.qr_decompose(ctx, n, q_sec, r)
            linalg.qr_solve(ctx, n, q_sec, r, b_sec, x_sec)

        res = distributed_call(
            m4, procs(m4), program, [Local(aid), Local(b), Local(x)]
        )
        assert res.status is Status.OK
        assert np.allclose(
            gather_vector(m4, x, n), np.linalg.solve(a_vals, b_vals),
            atol=1e-8,
        )
        assert np.allclose(gather_vector(m4, b, n), b_vals)  # b unchanged


class TestConjugateGradient:
    def test_cg_solves_spd_system(self, m4):
        n = 8
        rng = np.random.default_rng(7)
        base = rng.standard_normal((n, n))
        spd = base @ base.T + n * np.eye(n)
        a = scatter_matrix(m4, n, spd)
        b_vals = rng.standard_normal(n)
        b = scatter_vector(m4, n, b_vals)
        x = scatter_vector(m4, n, np.zeros(n))

        res = distributed_call(
            m4, procs(m4),
            lambda ctx, am, bm, xm, r: linalg.conjugate_gradient(
                ctx, n, 50, 1e-10, am, bm, xm, r
            ),
            [Local(a), Local(b), Local(x), Reduce("double", 1, "max")],
        )
        assert res.status is Status.OK
        assert res.reductions[0] < 1e-9
        assert np.allclose(
            gather_vector(m4, x, n), np.linalg.solve(spd, b_vals), atol=1e-7
        )

    def test_cg_respects_iteration_cap(self, m4):
        n = 8
        rng = np.random.default_rng(9)
        base = rng.standard_normal((n, n))
        spd = base @ base.T + n * np.eye(n)
        a = scatter_matrix(m4, n, spd)
        b = scatter_vector(m4, n, np.ones(n))
        x = scatter_vector(m4, n, np.zeros(n))

        res = distributed_call(
            m4, procs(m4),
            lambda ctx, am, bm, xm, r: linalg.conjugate_gradient(
                ctx, n, 1, 0.0, am, bm, xm, r
            ),
            [Local(a), Local(b), Local(x), Reduce("double", 1, "max")],
        )
        # one iteration cannot fully converge a random SPD system
        assert res.reductions[0] > 0.0


class TestMatMat:
    def test_matmat_matches_numpy(self, m4):
        n = 8
        rng = np.random.default_rng(11)
        a_vals = rng.standard_normal((n, n))
        b_vals = rng.standard_normal((n, n))
        a = scatter_matrix(m4, n, a_vals)
        b = scatter_matrix(m4, n, b_vals)
        c = scatter_matrix(m4, n, np.zeros((n, n)))
        res = distributed_call(
            m4, procs(m4),
            lambda ctx, am, bm, cm: linalg.mat_mat(ctx, am, bm, cm),
            [Local(a), Local(b), Local(c)],
        )
        assert res.status is Status.OK
        assert np.allclose(gather_matrix(m4, c, n), a_vals @ b_vals)

    def test_frobenius_norm(self, m4):
        n = 8
        rng = np.random.default_rng(13)
        a_vals = rng.standard_normal((n, n))
        a = scatter_matrix(m4, n, a_vals)
        res = distributed_call(
            m4, procs(m4),
            lambda ctx, am, out: linalg.mat_frobenius_norm(ctx, am, out),
            [Local(a), Reduce("double", 1, "max")],
        )
        assert res.reductions[0] == pytest.approx(
            float(np.linalg.norm(a_vals, "fro"))
        )

    def test_matmat_identity(self, m4):
        n = 8
        rng = np.random.default_rng(17)
        a_vals = rng.standard_normal((n, n))
        a = scatter_matrix(m4, n, a_vals)
        eye = scatter_matrix(m4, n, np.eye(n))
        c = scatter_matrix(m4, n, np.zeros((n, n)))
        distributed_call(
            m4, procs(m4),
            lambda ctx, am, bm, cm: linalg.mat_mat(ctx, am, bm, cm),
            [Local(a), Local(eye), Local(c)],
        )
        assert np.allclose(gather_matrix(m4, c, n), a_vals)


class TestCholesky:
    def make_spd(self, m4, n=8, seed=2):
        rng = np.random.default_rng(seed)
        base = rng.standard_normal((n, n))
        spd = base @ base.T + n * np.eye(n)
        return scatter_matrix(m4, n, spd), spd

    def test_factor_is_lower_and_reconstructs(self, m4):
        n = 8
        aid, spd = self.make_spd(m4, n)
        res = distributed_call(
            m4, procs(m4),
            lambda ctx, am: linalg.cholesky_decompose(ctx, n, am),
            [Local(aid)],
        )
        assert res.status is Status.OK
        l_factor = gather_matrix(m4, aid, n)
        assert np.allclose(l_factor, np.tril(l_factor))
        assert np.allclose(l_factor @ l_factor.T, spd, atol=1e-8)
        assert np.allclose(
            l_factor, np.linalg.cholesky(spd), atol=1e-8
        )

    def test_cholesky_solve_matches_numpy(self, m4):
        n = 8
        aid, spd = self.make_spd(m4, n, seed=6)
        rng = np.random.default_rng(1)
        b_vals = rng.standard_normal(n)
        b = scatter_vector(m4, n, b_vals)
        x = scatter_vector(m4, n, np.zeros(n))

        def program(ctx, am, bm, xm):
            linalg.cholesky_decompose(ctx, n, am)
            linalg.cholesky_solve(ctx, n, am, bm, xm)

        res = distributed_call(
            m4, procs(m4), program, [Local(aid), Local(b), Local(x)]
        )
        assert res.status is Status.OK
        assert np.allclose(
            gather_vector(m4, x, n), np.linalg.solve(spd, b_vals), atol=1e-8
        )
        assert np.allclose(gather_vector(m4, b, n), b_vals)  # b unchanged

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_various_sizes(self, m4, n):
        aid, spd = self.make_spd(m4, n, seed=n)
        res = distributed_call(
            m4, procs(m4),
            lambda ctx, am: linalg.cholesky_decompose(ctx, n, am),
            [Local(aid)],
        )
        assert res.status is Status.OK
        l_factor = gather_matrix(m4, aid, n)
        assert np.allclose(l_factor @ l_factor.T, spd, atol=1e-7)
