"""Distributed FFT programs (§6.2.3), validated against numpy.fft."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrays import am_user, am_util
from repro.calls import Index, Local, distributed_call
from repro.spmd.context import OutCell
from repro.spmd.fft import (
    FORWARD,
    INVERSE,
    as_complex,
    bit_reverse_permutation,
    compute_roots,
    dif_serial,
    dit_serial,
    fft_natural,
    fft_reverse,
    rho,
    rho_proc,
)
from repro.status import Status
from repro.vp.machine import Machine


class TestBitReversal:
    def test_rho_small_values(self):
        assert rho(3, 0b001) == 0b100
        assert rho(3, 0b110) == 0b011
        assert rho(4, 0b0001) == 0b1000

    def test_rho_is_involution(self):
        for bits in range(1, 8):
            for value in range(1 << bits):
                assert rho(bits, rho(bits, value)) == value

    def test_rho_proc_interface(self):
        """§6.2.3: by-reference parameter convention."""
        out = OutCell("returnp")
        rho_proc(None, [3], [0b011], out)
        assert out.value == 0b110
        buf = np.zeros(1, dtype=np.int64)
        rho_proc(None, [4], [1], buf)
        assert buf[0] == 8

    def test_permutation_vector(self):
        perm = bit_reverse_permutation(8)
        assert list(perm) == [0, 4, 2, 6, 1, 5, 3, 7]

    def test_permutation_rejects_non_powers(self):
        with pytest.raises(ValueError):
            bit_reverse_permutation(6)


class TestAsComplex:
    def test_native_complex_passthrough(self):
        x = np.zeros(4, dtype=np.complex128)
        assert as_complex(x) is not None
        as_complex(x)[0] = 1j
        assert x[0] == 1j

    def test_paired_doubles_alias(self):
        """The thesis' representation: successive double pairs."""
        x = np.array([1.0, 2.0, 3.0, 4.0])
        c = as_complex(x)
        assert list(c) == [1 + 2j, 3 + 4j]
        c[0] = 9 + 8j  # writes through
        assert list(x) == [9.0, 8.0, 3.0, 4.0]

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            as_complex(np.zeros(3))

    def test_wrong_dtype_rejected(self):
        with pytest.raises(ValueError):
            as_complex(np.zeros(4, dtype=np.float32))


def reference_inverse(x):
    """The §6.2.1 definition: f̂_j = Σ_k f_k e^{2πijk/N} (no scaling) —
    numpy's ifft times N."""
    return np.fft.ifft(x) * x.size


def reference_forward(x):
    """f_j = (1/N) Σ_k f̂_k e^{-2πijk/N} — numpy's fft divided by N."""
    return np.fft.fft(x) / x.size


class TestSerialKernels:
    @pytest.mark.parametrize("n", [2, 4, 8, 32, 128])
    def test_dit_inverse_matches_reference(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        eps = np.exp(2j * np.pi * np.arange(n) / n)
        perm = bit_reverse_permutation(n)
        y = x[perm].copy()
        dit_serial(y, eps, inverse=True)
        assert np.allclose(y, reference_inverse(x))

    @pytest.mark.parametrize("n", [2, 4, 8, 32, 128])
    def test_dif_forward_matches_reference(self, n):
        rng = np.random.default_rng(n + 1)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        eps = np.exp(2j * np.pi * np.arange(n) / n)
        perm = bit_reverse_permutation(n)
        y = x.copy()
        dif_serial(y, eps, inverse=False)
        assert np.allclose(y, reference_forward(x)[perm])

    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_roundtrip_is_identity(self, n):
        """inverse-then-forward (with the 1/N) recovers the input — the
        §6.2.1 polynomial evaluate/interpolate pair."""
        rng = np.random.default_rng(2 * n)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        eps = np.exp(2j * np.pi * np.arange(n) / n)
        perm = bit_reverse_permutation(n)
        y = x[perm].copy()
        dit_serial(y, eps, inverse=True)   # values at roots, natural order
        dif_serial(y, eps, inverse=False)  # coefficients, bit-reversed
        assert np.allclose(y[perm], x)


def distributed_fixture(p, n):
    machine = Machine(p)
    am_util.load_all(machine)
    procs = am_util.node_array(0, 1, p)
    data, st = am_user.create_array(machine, "double", (2 * n,), procs, ["block"])
    assert st is Status.OK
    eps, st = am_user.create_array(
        machine, "double", (p, 2 * n), procs, ["block", "*"]
    )
    assert st is Status.OK
    res = distributed_call(
        machine, procs,
        lambda ctx, nn, sec: compute_roots(ctx, nn, sec),
        [n, Local(eps)],
    )
    assert res.status is Status.OK
    return machine, procs, data, eps


def write_complex(machine, aid, values):
    flat = np.empty(2 * values.size)
    flat[0::2] = values.real
    flat[1::2] = values.imag
    status = am_user.write_region(machine, aid, [(0, flat.size)], flat)
    assert status is Status.OK


def read_complex(machine, aid, n):
    flat, status = am_user.read_region(machine, aid, [(0, 2 * n)])
    assert status is Status.OK
    return flat[0::2] + 1j * flat[1::2]


class TestDistributedFFT:
    @pytest.mark.parametrize("p,n", [(1, 8), (2, 8), (4, 16), (8, 32)])
    def test_fft_reverse_inverse(self, p, n):
        machine, procs, data, eps = distributed_fixture(p, n)
        rng = np.random.default_rng(7)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        perm = bit_reverse_permutation(n)
        write_complex(machine, data, x[perm])
        res = distributed_call(
            machine, procs, fft_reverse,
            [procs, p, Index(), n, INVERSE, Local(eps), Local(data)],
        )
        assert res.status is Status.OK
        assert np.allclose(read_complex(machine, data, n), reference_inverse(x))

    @pytest.mark.parametrize("p,n", [(2, 8), (4, 16)])
    def test_fft_natural_forward(self, p, n):
        machine, procs, data, eps = distributed_fixture(p, n)
        rng = np.random.default_rng(17)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        write_complex(machine, data, x)
        res = distributed_call(
            machine, procs, fft_natural,
            [procs, p, Index(), n, FORWARD, Local(eps), Local(data)],
        )
        assert res.status is Status.OK
        perm = bit_reverse_permutation(n)
        assert np.allclose(
            read_complex(machine, data, n), reference_forward(x)[perm]
        )

    @pytest.mark.parametrize("p,n", [(2, 16), (4, 16)])
    def test_distributed_roundtrip(self, p, n):
        machine, procs, data, eps = distributed_fixture(p, n)
        rng = np.random.default_rng(27)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        perm = bit_reverse_permutation(n)
        write_complex(machine, data, x[perm])
        for program, flag in ((fft_reverse, INVERSE), (fft_natural, FORWARD)):
            res = distributed_call(
                machine, procs, program,
                [procs, p, Index(), n, flag, Local(eps), Local(data)],
            )
            assert res.status is Status.OK
        assert np.allclose(read_complex(machine, data, n)[perm], x)

    def test_compute_roots_values(self):
        machine, procs, _data, eps = distributed_fixture(2, 8)
        (_origin, block), status = am_user.get_local_block(machine, eps, 0)
        assert status is Status.OK
        flat = block.reshape(-1)
        roots = flat[0::2] + 1j * flat[1::2]
        assert np.allclose(roots, np.exp(2j * np.pi * np.arange(8) / 8))


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from([4, 8, 16, 32]),
    st.integers(0, 2**31 - 1),
)
def test_property_serial_roundtrip(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    eps = np.exp(2j * np.pi * np.arange(n) / n)
    perm = bit_reverse_permutation(n)
    y = x[perm].copy()
    dit_serial(y, eps, inverse=True)
    dif_serial(y, eps, inverse=False)
    assert np.allclose(y[perm], x)
