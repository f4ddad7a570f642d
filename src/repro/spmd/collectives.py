"""Collective operations over a group communicator.

The thesis' data-parallel model needs "sufficient synchronisation to
maintain the semantics of the programming model" (§1.2.5); SPMD
implementations commonly use barriers and global reductions.  The adapted
van de Velde library (§D) relied on such global-communication routines —
§3.5 requires that they be restrictable to the call's processor subset,
which these are, because they run over a group-scoped
:class:`~repro.spmd.comm.GroupComm`.

Two algorithm families are provided, selectable via ``algorithm=``:

* ``"linear"`` — a master/sequential pattern, O(P) messages per operation
  and O(P) latency (the "loose synchronisation with a master" of §1.2.5);
* ``"tree"`` — binomial/dissemination patterns, O(P log P) or O(P)
  messages with O(log P) latency (SPMD without a master).

The ABL-2 benchmark measures the message-count difference between them.

Reductions fold values in **rank order** so any *associative* operator is
legal, commutative or not — matching the §3.3.1.2 contract, which demands
associativity only.
"""

from __future__ import annotations

import functools
from typing import Any, Optional

from repro.obs.spans import span as obs_span
from repro.spmd.comm import GroupComm
from repro.spmd.reduce_ops import BinaryOp, resolve_op

DEFAULT_ALGORITHM = "tree"


def _traced(fn):
    """Wrap a collective in a ``collective:<name>`` observability span.

    While observation is off no span is built, not even a no-op one;
    composed collectives (allreduce = reduce + bcast) show up as nested
    spans.
    """
    name = f"collective:{fn.__name__}"

    @functools.wraps(fn)
    def traced(comm: GroupComm, *args: Any, **kwargs: Any) -> Any:
        # Collectives are flush points for the write-behind coalescer
        # (repro.perf): a barrier/reduction orders this rank's queued
        # writes before anything a peer does afterwards.  Comms marked
        # ``internal`` (the checkpoint quiesce barrier, which runs with
        # every record lock held) are exempt — their synchronisation is
        # below the flush machinery, and flushing inside them could
        # deadlock on those locks.
        machine = comm.machine
        perf = getattr(machine, "_perf", None)
        if perf is not None and not getattr(comm, "internal", False):
            perf.coalescer.flush()
        if getattr(machine, "_observer", None) is None:
            return fn(comm, *args, **kwargs)
        with obs_span(machine, name, rank=comm.rank, size=comm.size):
            return fn(comm, *args, **kwargs)

    return traced


def _tag(comm: GroupComm, name: str):
    """Per-collective tag: successive collectives must not cross-talk.

    SPMD copies execute the same sequence of collectives, so a per-comm
    sequence number advances in lockstep on every rank.
    """
    seq = getattr(comm, "_collective_seq", 0) + 1
    comm._collective_seq = seq  # type: ignore[attr-defined]
    return ("coll", name, seq)


def _check_algorithm(algorithm: str) -> None:
    if algorithm not in ("linear", "tree"):
        raise ValueError(f"algorithm must be 'linear' or 'tree': {algorithm!r}")


# -- barrier ---------------------------------------------------------------------


@_traced
def barrier(comm: GroupComm, algorithm: str = DEFAULT_ALGORITHM) -> None:
    """Block until every rank in the group has arrived (§1.2.5)."""
    _check_algorithm(algorithm)
    tag = _tag(comm, "barrier")
    n = comm.size
    if n == 1:
        return
    if algorithm == "linear":
        if comm.rank == 0:
            for r in range(1, n):
                comm.recv(source_rank=r, tag=tag)
            for r in range(1, n):
                comm.send(r, None, tag=tag)
        else:
            comm.send(0, None, tag=tag)
            comm.recv(source_rank=0, tag=tag)
        return
    # Dissemination barrier: ceil(log2 n) rounds, works for any n.
    k = 1
    round_no = 0
    while k < n:
        comm.send((comm.rank + k) % n, round_no, tag=tag)
        comm.recv(source_rank=(comm.rank - k) % n, tag=tag)
        k *= 2
        round_no += 1


# -- broadcast --------------------------------------------------------------------


@_traced
def bcast(
    comm: GroupComm,
    value: Any = None,
    root: int = 0,
    algorithm: str = DEFAULT_ALGORITHM,
) -> Any:
    """Root's value delivered to every rank."""
    _check_algorithm(algorithm)
    tag = _tag(comm, "bcast")
    n = comm.size
    if n == 1:
        return value
    if algorithm == "linear":
        if comm.rank == root:
            for r in range(n):
                if r != root:
                    comm.send(r, value, tag=tag)
            return value
        return comm.recv(source_rank=root, tag=tag)
    # Binomial tree on ranks relative to root.
    rel = (comm.rank - root) % n
    mask = 1
    while mask < n:
        if rel & mask:
            src = (rel - mask + root) % n
            value = comm.recv(source_rank=src, tag=tag)
            break
        mask *= 2
    mask //= 2
    while mask >= 1:
        if rel + mask < n:
            dest = (rel + mask + root) % n
            comm.send(dest, value, tag=tag)
        mask //= 2
    return value


# -- reduce ------------------------------------------------------------------------


@_traced
def reduce(
    comm: GroupComm,
    value: Any,
    op: BinaryOp = "sum",
    root: int = 0,
    algorithm: str = DEFAULT_ALGORITHM,
) -> Optional[Any]:
    """Fold all ranks' values (in rank order) at ``root``.

    Non-root ranks return None.
    """
    _check_algorithm(algorithm)
    fold = resolve_op(op)
    tag = _tag(comm, "reduce")
    n = comm.size
    if n == 1:
        return value
    if algorithm == "linear":
        if comm.rank == root:
            acc = None
            for r in range(n):
                contrib = value if r == root else comm.recv(
                    source_rank=r, tag=tag
                )
                acc = contrib if acc is None else fold(acc, contrib)
            return acc
        comm.send(root, value, tag=tag)
        return None
    # Binomial reduce toward rank 0 of the root-relative numbering.  The
    # accumulator always holds a contiguous rank range [rel, rel+span), so
    # folding a higher partner's accumulator on the right preserves rank
    # order for non-commutative operators.
    rel = (comm.rank - root) % n
    acc = value
    mask = 1
    while mask < n:
        if rel & mask:
            dest = (rel - mask + root) % n
            comm.send(dest, acc, tag=tag)
            return None
        partner = rel + mask
        if partner < n:
            acc = fold(acc, comm.recv(source_rank=(partner + root) % n, tag=tag))
        mask *= 2
    return acc


@_traced
def allreduce(
    comm: GroupComm,
    value: Any,
    op: BinaryOp = "sum",
    algorithm: str = DEFAULT_ALGORITHM,
) -> Any:
    """Reduce then broadcast: every rank gets the folded value."""
    result = reduce(comm, value, op=op, root=0, algorithm=algorithm)
    return bcast(comm, result, root=0, algorithm=algorithm)


# -- gather family -------------------------------------------------------------------


@_traced
def gather(
    comm: GroupComm, value: Any, root: int = 0
) -> Optional[list]:
    """All ranks' values collected, in rank order, at root."""
    tag = _tag(comm, "gather")
    n = comm.size
    if comm.rank == root:
        out = []
        for r in range(n):
            out.append(value if r == root else comm.recv(source_rank=r, tag=tag))
        return out
    comm.send(root, value, tag=tag)
    return None


@_traced
def scatter(
    comm: GroupComm, values: Optional[list] = None, root: int = 0
) -> Any:
    """Root's ``values[r]`` delivered to rank r."""
    tag = _tag(comm, "scatter")
    n = comm.size
    if comm.rank == root:
        assert values is not None and len(values) == n, (
            "scatter needs one value per rank at the root"
        )
        for r in range(n):
            if r != root:
                comm.send(r, values[r], tag=tag)
        return values[root]
    return comm.recv(source_rank=root, tag=tag)


@_traced
def allgather(
    comm: GroupComm, value: Any, algorithm: str = DEFAULT_ALGORITHM
) -> list:
    """Every rank receives the rank-ordered list of all values."""
    _check_algorithm(algorithm)
    tag = _tag(comm, "allgather")
    n = comm.size
    if n == 1:
        return [value]
    if algorithm == "linear":
        # Gather at 0 then broadcast (master-style).
        collected = gather(comm, value, root=0)
        return bcast(comm, collected, root=0, algorithm="linear")
    # Ring allgather: n-1 rounds, each rank forwards what it just received.
    out: list[Any] = [None] * n
    out[comm.rank] = value
    send_to = (comm.rank + 1) % n
    recv_from = (comm.rank - 1) % n
    carry_index = comm.rank
    carry = value
    for _ in range(n - 1):
        comm.send(send_to, (carry_index, carry), tag=tag)
        carry_index, carry = comm.recv(source_rank=recv_from, tag=tag)
        out[carry_index] = carry
    return out


@_traced
def alltoall(comm: GroupComm, values: list) -> list:
    """``values[r]`` from every rank delivered to rank r, rank-ordered."""
    tag = _tag(comm, "alltoall")
    n = comm.size
    assert len(values) == n, "alltoall needs one value per rank"
    for r in range(n):
        if r != comm.rank:
            comm.send(r, values[r], tag=tag)
    out: list[Any] = [None] * n
    out[comm.rank] = values[comm.rank]
    for r in range(n):
        if r != comm.rank:
            out[r] = comm.recv(source_rank=r, tag=tag)
    return out


@_traced
def scan(comm: GroupComm, value: Any, op: BinaryOp = "sum") -> Any:
    """Inclusive prefix fold in rank order."""
    fold = resolve_op(op)
    tag = _tag(comm, "scan")
    acc = value
    if comm.rank > 0:
        prefix = comm.recv(source_rank=comm.rank - 1, tag=tag)
        acc = fold(prefix, value)
    if comm.rank + 1 < comm.size:
        comm.send(comm.rank + 1, acc, tag=tag)
    return acc
