"""2-D FFT and distributed transpose (extension of §6.2.3's substrate)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.arrays import am_user, am_util
from repro.calls import Local, distributed_call
from repro.pcn.composition import par
from repro.spmd.context import SPMDContext
from repro.spmd.fft import FORWARD, INVERSE, distributed_transpose, fft2
from repro.status import Status
from repro.vp.machine import Machine


def machine_with(p):
    m = Machine(p)
    am_util.load_all(m)
    return m, am_util.node_array(0, 1, p)


def scatter_rows(machine, aid, flat):
    whole = [(0, flat.shape[0]), (0, flat.shape[1])]
    assert am_user.write_region(machine, aid, whole, flat) is Status.OK


def gather_rows(machine, aid):
    shape, _ = am_user.find_info(machine, aid, "dimensions")
    flat, status = am_user.read_region(machine, aid, [(0, d) for d in shape])
    assert status is Status.OK
    return flat


class TestDistributedTranspose:
    @pytest.mark.parametrize("p,n", [(2, 4), (4, 8), (2, 8)])
    def test_transpose_matches_numpy(self, p, n):
        machine, _ = machine_with(p)
        rng = np.random.default_rng(p * n)
        full = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        m = n // p
        contexts = [
            SPMDContext(machine, list(range(p)), r, "t") for r in range(p)
        ]

        def body(ctx):
            block = full[ctx.index * m : (ctx.index + 1) * m].copy()
            return distributed_transpose(ctx, block)

        blocks = par(*[lambda c=c: body(c) for c in contexts])
        result = np.vstack(blocks)
        assert np.allclose(result, full.T)

    def test_double_transpose_is_identity(self):
        machine, _ = machine_with(4)
        n, p = 8, 4
        m = n // p
        rng = np.random.default_rng(1)
        full = rng.standard_normal((n, n)).astype(complex)
        contexts = [
            SPMDContext(machine, list(range(p)), r, "t2") for r in range(p)
        ]

        def body(ctx):
            block = full[ctx.index * m : (ctx.index + 1) * m].copy()
            return distributed_transpose(
                ctx, distributed_transpose(ctx, block)
            )

        blocks = par(*[lambda c=c: body(c) for c in contexts])
        assert np.allclose(np.vstack(blocks), full)

    def test_shape_mismatch_rejected(self):
        machine, _ = machine_with(2)
        ctx = SPMDContext(machine, [0, 1], 0, "bad")
        with pytest.raises(ValueError):
            distributed_transpose(ctx, np.zeros((3, 5), dtype=complex))


def pack_complex(x):
    flat = np.empty((x.shape[0], 2 * x.shape[1]))
    flat[:, 0::2] = x.real
    flat[:, 1::2] = x.imag
    return flat


def unpack_complex(flat):
    return flat[:, 0::2] + 1j * flat[:, 1::2]


class TestFFT2:
    @pytest.mark.parametrize("p,n", [(1, 8), (2, 8), (4, 16)])
    def test_inverse_matches_numpy(self, p, n):
        machine, procs = machine_with(p)
        aid, st = am_user.create_array(
            machine, "double", (n, 2 * n), procs, [("block", p), "*"]
        )
        assert st is Status.OK
        rng = np.random.default_rng(n)
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        scatter_rows(machine, aid, pack_complex(x))
        res = distributed_call(
            machine, procs, fft2, [n, INVERSE, Local(aid)]
        )
        assert res.status is Status.OK
        out = unpack_complex(gather_rows(machine, aid))
        assert np.allclose(out, np.fft.ifft2(x) * n * n)

    @pytest.mark.parametrize("p,n", [(2, 8), (4, 16)])
    def test_forward_matches_numpy(self, p, n):
        machine, procs = machine_with(p)
        aid, _ = am_user.create_array(
            machine, "double", (n, 2 * n), procs, [("block", p), "*"]
        )
        rng = np.random.default_rng(n + 1)
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        scatter_rows(machine, aid, pack_complex(x))
        res = distributed_call(
            machine, procs, fft2, [n, FORWARD, Local(aid)]
        )
        assert res.status is Status.OK
        out = unpack_complex(gather_rows(machine, aid))
        assert np.allclose(out, np.fft.fft2(x) / (n * n))

    def test_roundtrip(self):
        p, n = 2, 8
        machine, procs = machine_with(p)
        aid, _ = am_user.create_array(
            machine, "double", (n, 2 * n), procs, [("block", p), "*"]
        )
        rng = np.random.default_rng(5)
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        scatter_rows(machine, aid, pack_complex(x))
        for flag in (INVERSE, FORWARD):
            res = distributed_call(
                machine, procs, fft2, [n, flag, Local(aid)]
            )
            assert res.status is Status.OK
        out = unpack_complex(gather_rows(machine, aid))
        assert np.allclose(out, x)
