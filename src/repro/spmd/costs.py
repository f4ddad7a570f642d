"""Analytic communication-cost model for the SPMD substrate.

The thesis evaluates its prototype qualitatively; this module gives the
reproduction a quantitative footing that is independent of the GIL: for
every collective algorithm, the stencil halo exchange, and the distributed
FFT, closed-form **message counts** and **critical-path rounds** (the two
terms of a LogP-style latency model).  Tests validate each formula against
the machine's exact routed-message counters, so the model is load-bearing,
not decorative; the ABL benchmarks use it to explain their measurements.

Conventions: ``p`` ranks in the group, messages counted machine-wide (one
per point-to-point send), rounds = length of the longest chain of
dependent messages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def _ceil_log2(p: int) -> int:
    if p < 1:
        raise ValueError("group size must be >= 1")
    return math.ceil(math.log2(p)) if p > 1 else 0


@dataclass(frozen=True)
class Cost:
    """Messages moved and dependent rounds for one operation."""

    messages: int
    rounds: int

    def latency(self, alpha: float, per_message_payload: float = 0.0,
                beta: float = 0.0) -> float:
        """LogP-ish estimate: rounds * (alpha + beta*payload)."""
        return self.rounds * (alpha + beta * per_message_payload)


# -- collectives -------------------------------------------------------------


def barrier_cost(p: int, algorithm: str = "tree") -> Cost:
    """linear: gather-at-0 then release (2(p-1) msgs, 2 rounds);
    tree: dissemination, p msgs per round for ceil(log2 p) rounds."""
    if p == 1:
        return Cost(0, 0)
    if algorithm == "linear":
        return Cost(2 * (p - 1), 2)
    rounds = _ceil_log2(p)
    return Cost(p * rounds, rounds)


def bcast_cost(p: int, algorithm: str = "tree") -> Cost:
    """Both algorithms move p-1 messages; the binomial tree does it in
    ceil(log2 p) dependent rounds instead of p-1."""
    if p == 1:
        return Cost(0, 0)
    if algorithm == "linear":
        return Cost(p - 1, p - 1)
    return Cost(p - 1, _ceil_log2(p))


def reduce_cost(p: int, algorithm: str = "tree") -> Cost:
    """Mirror of bcast: p-1 messages, linear-chain vs log-depth."""
    if p == 1:
        return Cost(0, 0)
    if algorithm == "linear":
        return Cost(p - 1, p - 1)
    return Cost(p - 1, _ceil_log2(p))


def allreduce_cost(p: int, algorithm: str = "tree") -> Cost:
    """reduce + bcast (the implementation composes them)."""
    r, b = reduce_cost(p, algorithm), bcast_cost(p, algorithm)
    return Cost(r.messages + b.messages, r.rounds + b.rounds)


def gather_cost(p: int) -> Cost:
    if p == 1:
        return Cost(0, 0)
    return Cost(p - 1, 1)


def scatter_cost(p: int) -> Cost:
    if p == 1:
        return Cost(0, 0)
    return Cost(p - 1, 1)


def allgather_cost(p: int, algorithm: str = "tree") -> Cost:
    """linear: gather at 0 (p-1 messages, 1 round) then a linear bcast of
    the list (p-1 messages, p-1 rounds) — 2(p-1) messages in p rounds;
    tree: a ring, every rank sending one item a round — p(p-1) messages
    in p-1 rounds."""
    if p == 1:
        return Cost(0, 0)
    if algorithm == "linear":
        return Cost(2 * (p - 1), p)  # gather (1 round) + linear bcast
    return Cost(p * (p - 1), p - 1)


def alltoall_cost(p: int) -> Cost:
    """Direct exchange: every rank sends to every other rank."""
    if p == 1:
        return Cost(0, 0)
    return Cost(p * (p - 1), 1)


def scan_cost(p: int) -> Cost:
    """Linear chain."""
    if p == 1:
        return Cost(0, 0)
    return Cost(p - 1, p - 1)


# -- application kernels --------------------------------------------------------


def halo_exchange_cost(grid_rows: int, grid_cols: int) -> Cost:
    """One 1-deep halo exchange on a gr x gc grid: every internal edge
    carries one message in each direction; all exchanges proceed
    concurrently (1 round)."""
    internal_edges = (grid_rows - 1) * grid_cols + (grid_cols - 1) * grid_rows
    return Cost(2 * internal_edges, 1 if internal_edges else 0)


def halo_exchange_bytes(n_rows: int, n_cols: int, grid_rows: int,
                        grid_cols: int, itemsize: int = 8) -> int:
    """Total bytes moved by one halo exchange of an (n_rows x n_cols)
    array on a (grid_rows x grid_cols) grid — the ABL-1 model."""
    rows, cols = n_rows // grid_rows, n_cols // grid_cols
    horizontal_cells = (grid_rows - 1) * grid_cols * cols
    vertical_cells = (grid_cols - 1) * grid_rows * rows
    return (horizontal_cells + vertical_cells) * 2 * itemsize


def fft_exchange_cost(n: int, p: int) -> Cost:
    """Binary-exchange 1-D FFT of N points on P copies: log2(P) exchange
    stages, each a pairwise block swap (2 messages per pair, P messages
    per stage)."""
    stages = _ceil_log2(p)
    return Cost(p * stages, stages)


def transpose_cost(p: int) -> Cost:
    """Distributed transpose = one alltoall."""
    return alltoall_cost(p)


def fft2_cost(n: int, p: int) -> Cost:
    """Row-column 2-D FFT: local row transforms + two transposes."""
    t = transpose_cost(p)
    return Cost(2 * t.messages, 2 * t.rounds)
