"""Analytic communication-cost model for the SPMD substrate.

The thesis evaluates its prototype qualitatively; this module gives the
reproduction a quantitative footing that is independent of the GIL: for
every collective algorithm and the distributed FFT, closed-form **message
counts** and **critical-path rounds** (the two terms of a LogP-style
latency model), and for a halo exchange its messages and bytes.  Tests
validate each formula against the machine's exact routed-message
counters, so the model is load-bearing, not decorative; the ABL
benchmarks, the pinned-wire tests and the phase scripts measure the
runtime against it.

Conventions: ``p`` ranks in the group, messages counted machine-wide (one
per point-to-point send), rounds = length of the longest chain of
dependent messages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.perf.commplan import STRIP_HEADER


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


def halo_phase(
    local_dims: tuple,
    grid: tuple,
    k: int = 1,
    sides: Optional[Iterable[str]] = None,
    header: int = STRIP_HEADER,
) -> tuple[int, int]:
    """``(messages, bytes)`` of one depth-``k`` halo exchange between
    ``local_dims`` blocks of doubles on a rank-1 or rank-2 ``grid``, from
    the distribution alone.

    Every cut between neighbouring sections carries one strip each way,
    ``k`` cells deep.  A rank-2 exchange runs in two stages: strips across
    row cuts span the ``w`` interior columns; strips across column cuts
    span ``h + 2k`` rows, the halo rows the first stage filled included —
    corner data reaches a diagonal neighbour relayed, never in a message
    of its own.  ``sides`` (default: all) keeps the strips that land on
    those receiver-relative sides (``north`` / ``south`` / ``west`` /
    ``east``; rank 1 has ``west`` / ``east``) in the last stage only: an
    earlier stage's strips are what the last one relays.  A message costs
    its cells plus ``header``: a planned ``halo_bulk`` strip carries
    :data:`~repro.perf.commplan.STRIP_HEADER`, the per-sweep reference's
    bare arrays nothing (``header=0``).
    """
    if len(grid) == 1:
        names, cells = (("west", "east"),), (k,)
    else:
        h, w = local_dims
        names = (("north", "south"), ("west", "east"))
        cells = (k * w, k * (h + 2 * k))
    cuts = [(g - 1) * math.prod(grid) // g for g in grid]
    # The last stage is the last axis with a cut: a (gr, 1) grid has no
    # column stage, so its row strips are the ones ``sides`` filters.
    last = max((axis for axis, n in enumerate(cuts) if n), default=0)
    messages = nbytes = 0
    for axis, n in enumerate(cuts):
        strips = n * sum(
            axis != last or sides is None or side in sides
            for side in names[axis]
        )
        messages += strips
        nbytes += strips * (8 * cells[axis] + header)
    return messages, nbytes


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
