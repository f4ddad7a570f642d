"""The Appendix D case study: adapting an existing data-parallel library.

The thesis' prototype was validated by adapting van de Velde's SPMD
linear-algebra library, originally written against the **Cosmic
Environment** (CE): untyped point-to-point messages, absolute node
numbers, and arrays-of-arrays matrix representations.  §D.2 records the
modifications required:

* **relocatability** — "explicit use of processor numbers was confined to
  the library's communication routines.  These routines were modified,
  replacing references to explicit processor numbers with references to an
  array of processor numbers passed as a parameter";
* **parameter compatibility** — "the programs ... represented a
  distributed array as a C data structure containing array dimensions and
  a pointer to the local section, and the local section of a
  multidimensional array was an array of arrays.  The programs were
  modified to instead represent distributed arrays as flat local
  sections";
* **communication compatibility** — "the example library's communication
  routines were ... modified to use typed messages of a
  data-parallel-program type" (§5.3).

This module reproduces the whole story in miniature:

* :class:`CosmicEnvironment` — the legacy communication substrate
  (untyped messages, absolute machine node numbers);
* :func:`legacy_inner_product`, :func:`legacy_broadcast`,
  :class:`LegacyMatrix` — a small "existing library" written against it,
  exhibiting each §D incompatibility;
* :class:`AdaptedEnvironment` — the same ``xsend``/``xrecv`` surface
  re-implemented over a group communicator (typed messages,
  group-relative ranks), so the legacy routines run unmodified once handed
  the adapted environment — the thesis' "at most minor modifications"
  claim, made executable;
* :func:`flatten_legacy_matrix` / :func:`unflatten_to_legacy` — the
  arrays-of-arrays ⇄ flat-section conversion.

The tests in ``tests/spmd/test_legacy.py`` demonstrate each failure mode
of the unadapted library (wrong-node delivery off processor 0, cross-layer
interception) and that the adapted environment fixes it without touching
the library routines themselves.
"""

from __future__ import annotations

import math
from typing import Any, Optional

import numpy as np

from repro.spmd.context import SPMDContext
from repro.vp.machine import Machine
from repro.vp.message import MessageType


class CosmicEnvironment:
    """The legacy substrate: untyped sends to *absolute* node numbers.

    Faithful to the pre-adaptation world in both defects §D identifies:
    ``xsend`` addresses machine nodes directly (node k of an application
    written for nodes 0..P-1 — running it on any other processor subset
    misdelivers), and ``xrecv`` takes the oldest message of *any* kind
    (the §3.4.1 interception hazard).
    """

    def __init__(
        self, machine: Machine, my_node: int, recv_timeout: float = 5.0
    ) -> None:
        self.machine = machine
        self.my_node = my_node
        self.recv_timeout = recv_timeout

    def xsend(self, node: int, data: Any) -> None:
        self.machine.send(
            source=self.my_node,
            dest=node,
            payload=data,
            mtype=MessageType.UNTYPED,
        )

    def xrecv(self, timeout: Optional[float] = None) -> Any:
        msg = self.machine.processor(self.my_node).mailbox.recv_untyped(
            timeout=timeout if timeout is not None else self.recv_timeout
        )
        return msg.payload


class AdaptedEnvironment:
    """The §D adaptation: same API surface, safe implementation.

    ``node`` arguments are reinterpreted as indices into the call's
    processors array (the relocatability fix), and traffic flows as typed,
    group-scoped messages with selective receive (the conflict fix).  A
    legacy routine runs unmodified: only the environment object changes.
    """

    def __init__(self, ctx: SPMDContext, recv_timeout: float = 5.0) -> None:
        self._ctx = ctx
        self.my_node = ctx.index  # group-relative, not absolute
        self.recv_timeout = recv_timeout

    def xsend(self, node: int, data: Any) -> None:
        self._ctx.comm.send(node, data, tag="legacy")

    def xrecv(self, timeout: Optional[float] = None) -> Any:
        return self._ctx.comm.recv(
            tag="legacy",
            timeout=timeout if timeout is not None else self.recv_timeout,
        )


# ---------------------------------------------------------------------------
# the "existing library" (written once, against the legacy API surface)
# ---------------------------------------------------------------------------


def legacy_broadcast(env, num_nodes: int, value: Any) -> Any:
    """Node-0-rooted broadcast, exactly as a CE-era library would write
    it: the root loops over absolute nodes 1..P-1."""
    if env.my_node == 0:
        for node in range(1, num_nodes):
            env.xsend(node, value)
        return value
    return env.xrecv()


def legacy_inner_product(
    env, num_nodes: int, local_x: np.ndarray, local_y: np.ndarray
) -> float:
    """Gather-at-0 then broadcast inner product (the CE-era pattern).

    The root sums the partials with ``math.fsum``, which rounds once, so
    the total does not depend on the order the partials arrive in: the
    same product on any processor subset is bit-identical (§3.5)."""
    partial = float(np.dot(local_x, local_y))
    if env.my_node == 0:
        total = math.fsum(
            [partial, *(env.xrecv() for _ in range(num_nodes - 1))]
        )
        for node in range(1, num_nodes):
            env.xsend(node, total)
        return total
    env.xsend(0, partial)
    return env.xrecv()


class LegacyMatrix:
    """The §D arrays-of-arrays matrix: a list of row lists plus header
    fields — the representation the thesis had to convert away from."""

    def __init__(self, rows: int, cols: int) -> None:
        self.rows = rows
        self.cols = cols
        self.data = [[0.0] * cols for _ in range(rows)]

    @classmethod
    def from_values(cls, values: np.ndarray) -> "LegacyMatrix":
        m = cls(values.shape[0], values.shape[1])
        m.data = [list(map(float, row)) for row in values]
        return m

    def row(self, r: int) -> list:
        return self.data[r]


def legacy_matvec(matrix: LegacyMatrix, vector: list) -> list:
    """Row-by-row matvec over the nested representation."""
    return [
        sum(matrix.data[r][c] * vector[c] for c in range(matrix.cols))
        for r in range(matrix.rows)
    ]


# ---------------------------------------------------------------------------
# the parameter adaptation (§D "Compatibility of parameters")
# ---------------------------------------------------------------------------


def flatten_legacy_matrix(matrix: LegacyMatrix) -> np.ndarray:
    """Arrays-of-arrays -> the flat contiguous local section the
    prototype's model requires ("a local section is simply a contiguous
    block of storage", §3.5)."""
    return np.asarray(matrix.data, dtype=np.float64).reshape(-1)


def unflatten_to_legacy(
    flat: np.ndarray, rows: int, cols: int
) -> LegacyMatrix:
    """Flat section -> the nested representation, for reuse of unmodified
    row-oriented legacy routines."""
    return LegacyMatrix.from_values(
        np.asarray(flat, dtype=np.float64).reshape(rows, cols)
    )
