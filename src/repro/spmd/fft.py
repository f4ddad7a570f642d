"""Distributed radix-2 FFT programs (§6.2.3).

Implements the data-parallel programs specified in §6.2.3 of the thesis:

* ``compute_roots`` — the N-th complex roots of unity;
* ``rho_proc`` — the bit-reversal map;
* ``fft_reverse`` — transform with input in *bit-reversed* order and output
  in natural order (decimation-in-time);
* ``fft_natural`` — transform with input in natural order and output in
  bit-reversed order (decimation-in-frequency).

Conventions (transcribed from §6.2 / §6.2.3):

* the **INVERSE** transform computes ``f̂_j = Σ_k f_k ω^{jk}`` with
  ``ω = e^{2πi/N}`` and *no* scaling (polynomial evaluation at the roots of
  unity);
* the **FORWARD** transform computes ``f_j = (1/N) Σ_k f̂_k ω^{-jk}``
  *including* the division by N (polynomial interpolation).

Complex values are stored as NumPy complex128, or — as in the thesis,
whose arrays are ``double`` with "each successive pair of doubles
represent[ing] a complex number" — as flat float64 arrays of even length,
reinterpreted in place by :func:`as_complex`.

Data distribution: N elements block-distributed over P processors
(both powers of two, N >= P), m = N/P contiguous slots per copy.  Stages
with butterfly span < m are fully local and vectorised; the log2(P)
remaining stages are *binary-exchange* stages, each swapping whole local
blocks with the partner ``index XOR span/m``.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.arrays.local_section import LocalSection
from repro.spmd.context import SPMDContext
from repro.spmd.linalg import interior

INVERSE = 1
FORWARD = 0


# ---------------------------------------------------------------------------
# bit reversal
# ---------------------------------------------------------------------------


def rho(bits: int, value: int) -> int:
    """The bit-reversal map ρ_m (§6.2.1): reverse the low ``bits`` bits."""
    out = 0
    for _ in range(bits):
        out = (out << 1) | (value & 1)
        value >>= 1
    return out


def rho_proc(ctx: SPMDContext, np_bits, tp, returnp) -> None:
    """§6.2.3 ``rho_proc``: *returnp = reversal of the low *np bits of *tp.

    Parameters follow the thesis' by-reference convention: each is a
    length-1 array or an OutCell-like object.
    """
    bits = int(np_bits[0]) if hasattr(np_bits, "__getitem__") else int(np_bits)
    t = int(tp[0]) if hasattr(tp, "__getitem__") else int(tp)
    result = rho(bits, t)
    if hasattr(returnp, "set"):
        returnp.set(result)
    else:
        returnp[0] = result


def bit_reverse_permutation(n: int) -> np.ndarray:
    """The full permutation vector: index i -> rho(log2 n, i)."""
    bits = _log2(n)
    return np.array([rho(bits, i) for i in range(n)], dtype=np.int64)


def _log2(n: int) -> int:
    bits = n.bit_length() - 1
    if n <= 0 or (1 << bits) != n:
        raise ValueError(f"{n} is not a positive power of two")
    return bits


# ---------------------------------------------------------------------------
# complex storage
# ---------------------------------------------------------------------------


def as_complex(x: Union[LocalSection, np.ndarray]) -> np.ndarray:
    """View a local section as complex128, in place.

    Accepts native complex arrays, or the thesis' paired-doubles layout
    (flat float64, even length) which is reinterpreted without copying.
    """
    arr = interior(x)
    if np.iscomplexobj(arr):
        return arr.reshape(-1)
    if not arr.flags.c_contiguous:
        raise ValueError(
            "paired-double complex storage must be contiguous (local "
            "sections with borders cannot alias complex views)"
        )
    if arr.dtype != np.float64 or arr.size % 2 != 0:
        raise ValueError(
            "complex storage must be complex128 or float64 pairs, got "
            f"{arr.dtype} of size {arr.size}"
        )
    return arr.view(np.complex128).reshape(-1)


# ---------------------------------------------------------------------------
# roots of unity
# ---------------------------------------------------------------------------


def compute_roots(ctx: SPMDContext, n, epsilon) -> None:
    """§6.2.3 ``compute_roots``: epsilon[j] = ω^j, ω = e^{2πi/n}.

    Precondition: n is a power of two; epsilon's local storage holds n
    complex values (every copy receives the full table — the thesis
    distributes the (2n, P) roots array ``("*", "block")`` so each
    processor's column is a complete copy).
    """
    nn = int(n[0]) if hasattr(n, "__getitem__") else int(n)
    _log2(nn)
    eps = as_complex(epsilon)
    if eps.size != nn:
        raise ValueError(
            f"epsilon holds {eps.size} complex slots, need {nn}"
        )
    eps[:] = np.exp(2j * np.pi * np.arange(nn) / nn)


# ---------------------------------------------------------------------------
# serial reference kernels (single local block = whole array)
# ---------------------------------------------------------------------------


def dit_serial(x: np.ndarray, eps: np.ndarray, inverse: bool) -> None:
    """In-place DIT: bit-reversed input -> natural output."""
    n = x.size
    _log2(n)
    _local_stages_dit(x, eps, n, n, inverse)
    if not inverse:
        x /= n


def dif_serial(x: np.ndarray, eps: np.ndarray, inverse: bool) -> None:
    """In-place DIF: natural input -> bit-reversed output."""
    n = x.size
    _log2(n)
    _local_stages_dif(x, eps, n, n // 2, inverse)
    if not inverse:
        x /= n


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------


def _twiddles(
    eps: np.ndarray, j: np.ndarray, n: int, span: int, inverse: bool
) -> np.ndarray:
    """The twiddle factor of butterfly offset ``j`` at ``span``: ω^(j N/2span),
    conjugated for the FORWARD transform."""
    exps = (j * (n // (2 * span))) % n
    return eps[exps] if inverse else np.conj(eps[exps])


def _exchange(
    ctx: SPMDContext,
    x: np.ndarray,
    eps: np.ndarray,
    n: int,
    span: int,
    inverse: bool,
) -> tuple:
    """Swap blocks with the partner ``index XOR span/m`` of a binary-exchange
    stage with butterfly span >= m.  Returns ``(other, am_low, w)``: the
    partner's block, whether this copy holds the butterflies' low halves,
    and the twiddles of the pair's butterflies."""
    m = x.size
    partner = ctx.index ^ (span // m)
    am_low = (ctx.index & (span // m)) == 0
    other = ctx.comm.sendrecv(partner, x.copy(), tag=("fft", span))
    base_low = (ctx.index if am_low else partner) * m
    j = (base_low + np.arange(m)) % span
    return other, am_low, _twiddles(eps, j, n, span, inverse)


def _exchange_stage_dit(
    ctx: SPMDContext,
    x: np.ndarray,
    eps: np.ndarray,
    n: int,
    span: int,
    inverse: bool,
) -> None:
    """One binary-exchange DIT stage with butterfly span >= m."""
    other, am_low, w = _exchange(ctx, x, eps, n, span, inverse)
    if am_low:
        x += w * other  # u + t
    else:
        x[:] = other - w * x  # u - t


def _exchange_stage_dif(
    ctx: SPMDContext,
    x: np.ndarray,
    eps: np.ndarray,
    n: int,
    span: int,
    inverse: bool,
) -> None:
    """One binary-exchange DIF stage with butterfly span >= m."""
    other, am_low, w = _exchange(ctx, x, eps, n, span, inverse)
    if am_low:
        x += other  # u + v
    else:
        x[:] = (other - x) * w  # (u - v) * w


def _local_stages_dit(
    x: np.ndarray, eps: np.ndarray, n: int, max_span: int, inverse: bool
) -> None:
    """All DIT stages with span < max_span, fully local and vectorised."""
    span = 1
    while span < max_span:
        w = _twiddles(eps, np.arange(span), n, span, inverse)
        y = x.reshape(-1, 2 * span)
        u = y[:, :span].copy()
        t = w * y[:, span:]
        y[:, :span] = u + t
        y[:, span:] = u - t
        span *= 2


def _local_stages_dif(
    x: np.ndarray, eps: np.ndarray, n: int, start_span: int, inverse: bool
) -> None:
    """All DIF stages with span <= start_span, fully local and vectorised
    (a block's global offset is a multiple of every local span, so the
    twiddles are the same on every copy)."""
    span = start_span
    while span >= 1:
        w = _twiddles(eps, np.arange(span), n, span, inverse)
        y = x.reshape(-1, 2 * span)
        u = y[:, :span].copy()
        v = y[:, span:]
        y[:, :span] = u + v
        y[:, span:] = (u - v) * w
        span //= 2


# ---------------------------------------------------------------------------
# the §6.2.3 programs
# ---------------------------------------------------------------------------


def _unbox(v) -> int:
    return int(v[0]) if hasattr(v, "__getitem__") else int(v)


def fft_reverse(ctx: SPMDContext, procs, p, index, n, flag, epsilon, bb) -> None:
    """§6.2.3 ``fft_reverse``: input bit-reversed, output natural order.

    Precondition: P = len(procs) is a power of 2; N is a power of 2 with
    N >= P; epsilon holds the N N-th roots of unity; bb is this copy's
    local section of the array to transform, global indexing bit-reversed.
    Postcondition: bb holds the local section of the transform, natural
    order; FORWARD includes division by N.
    """
    nn = _unbox(n)
    inverse = _unbox(flag) == INVERSE
    eps = as_complex(epsilon)
    x = as_complex(bb)
    m = x.size
    _log2(m)
    # DIT runs spans 1..N/2 ascending: local first, then exchanges.
    _local_stages_dit(x, eps, nn, min(m, nn), inverse)
    span = m
    while span < nn:
        _exchange_stage_dit(ctx, x, eps, nn, span, inverse)
        span *= 2
    if not inverse:
        x /= nn


def fft_natural(ctx: SPMDContext, procs, p, index, n, flag, epsilon, bb) -> None:
    """§6.2.3 ``fft_natural``: input natural order, output bit-reversed.

    Pre/postconditions mirror :func:`fft_reverse` with the orders swapped.
    """
    nn = _unbox(n)
    inverse = _unbox(flag) == INVERSE
    eps = as_complex(epsilon)
    x = as_complex(bb)
    m = x.size
    _log2(m)
    # DIF runs spans N/2..1 descending: exchanges first, then local.
    span = nn // 2
    while span >= m:
        _exchange_stage_dif(ctx, x, eps, nn, span, inverse)
        span //= 2
    _local_stages_dif(x, eps, nn, span, inverse)
    if not inverse:
        x /= nn


# ---------------------------------------------------------------------------
# 2-D FFT via distributed transpose (extension)
# ---------------------------------------------------------------------------


def distributed_transpose(ctx: SPMDContext, local: np.ndarray) -> np.ndarray:
    """Transpose an N x N matrix distributed as row blocks.

    Precondition: ``local`` is this copy's (m, N) row block, m = N/P.
    Postcondition: returns the (m, N) row block of the *transposed*
    matrix.  Implemented as a tiled alltoall: copy i sends its (m, m)
    tile destined for copy j, receives the mirror tile, and transposes
    each tile locally — the classic distributed-transpose exchange.
    """
    from repro.spmd import collectives

    m, n = local.shape
    p = ctx.num_procs
    if m * p != n:
        raise ValueError(
            f"transpose needs square N x N with N = m*P (got local {m}x{n} "
            f"over P={p})"
        )
    tiles = [np.ascontiguousarray(local[:, j * m : (j + 1) * m])
             for j in range(p)]
    received = collectives.alltoall(ctx.comm, tiles)
    out = np.empty_like(local)
    for j in range(p):
        out[:, j * m : (j + 1) * m] = received[j].T
    return out


def fft2(ctx: SPMDContext, n, flag, bb) -> None:
    """2-D FFT of an N x N complex array distributed by row blocks.

    Precondition: N a power of two, N % P == 0; ``bb`` holds this copy's
    row block (m rows of N complex values each, natural order both axes).
    Postcondition: bb holds the 2-D transform (rows and columns both in
    natural order).  INVERSE applies the thesis' unscaled evaluation
    transform along both axes; FORWARD includes the full 1/N^2 scaling.

    Row-column algorithm: transform the local rows serially (they are
    complete), distributed-transpose, transform again, transpose back.
    """
    nn = _unbox(n)
    inverse = _unbox(flag) == INVERSE
    x = as_complex(bb)
    m = x.size // nn
    rows = x.reshape(m, nn)
    eps = np.exp(2j * np.pi * np.arange(nn) / nn)
    perm = bit_reverse_permutation(nn)
    inv_perm = np.argsort(perm)

    def transform_rows(block: np.ndarray) -> None:
        for r in range(block.shape[0]):
            row = block[r].copy()
            dif_serial(row, eps, inverse)  # natural in -> bit-reversed out
            block[r] = row[inv_perm]  # back to natural order

    transform_rows(rows)
    rows[:] = distributed_transpose(ctx, rows)
    transform_rows(rows)
    rows[:] = distributed_transpose(ctx, rows)
