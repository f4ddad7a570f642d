"""The Appendix D case study: the legacy library's failure modes and the
adaptation that fixes them without modifying the library routines."""

from __future__ import annotations

import numpy as np
import pytest

from repro.calls import Index, Local, Reduce
from repro.core.runtime import IntegratedRuntime
from repro.pcn.composition import par
from repro.spmd.legacy import (
    AdaptedEnvironment,
    CosmicEnvironment,
    LegacyMatrix,
    flatten_legacy_matrix,
    legacy_broadcast,
    legacy_inner_product,
    legacy_matvec,
    unflatten_to_legacy,
)
from repro.spmd.linalg import interior
from repro.status import Status
from repro.vp.machine import Machine
from repro.vp.message import MessageType


class TestLegacyLibraryOnItsHomeGround:
    """On nodes 0..P-1 with no other traffic, the legacy library works —
    that is why it is worth adapting rather than rewriting."""

    def test_legacy_broadcast(self):
        machine = Machine(4)
        envs = [CosmicEnvironment(machine, n) for n in range(4)]
        results = par(
            *[
                (lambda e=e: legacy_broadcast(
                    e, 4, "payload" if e.my_node == 0 else None
                ))
                for e in envs
            ]
        )
        assert results == ["payload"] * 4

    def test_legacy_inner_product(self):
        machine = Machine(4)
        envs = [CosmicEnvironment(machine, n) for n in range(4)]
        rng = np.random.default_rng(0)
        x = rng.standard_normal(8)
        y = rng.standard_normal(8)

        def body(env):
            lo = env.my_node * 2
            return legacy_inner_product(env, 4, x[lo : lo + 2], y[lo : lo + 2])

        results = par(*[lambda e=e: body(e) for e in envs])
        assert all(r == pytest.approx(float(x @ y)) for r in results)

    def test_root_sum_does_not_depend_on_arrival_order(self):
        """The same partials reaching the root in two orders give one
        total: a left-to-right sum gives 0.6 for one order and
        0.6000000000000001 for the other."""

        class Root:
            my_node = 0

            def __init__(self, arrivals):
                self.arrivals = list(arrivals)

            def xrecv(self):
                return self.arrivals.pop(0)

            def xsend(self, node, data):
                pass

        own = (np.array([0.3]), np.array([1.0]))
        totals = {
            legacy_inner_product(Root(order), 3, *own)
            for order in ([0.2, 0.1], [0.1, 0.2])
        }
        assert len(totals) == 1


class TestRelocatabilityDefect:
    """§D: 'replacing references to explicit processor numbers with
    references to an array of processor numbers passed as a parameter'.
    The unadapted library addresses absolute nodes, so on any group not
    starting at node 0 it misdelivers."""

    def test_legacy_misdelivers_off_home_nodes(self):
        machine = Machine(8)
        # The "call" runs on nodes 4..7, but the library talks to 0..3.
        envs = [
            CosmicEnvironment(machine, n, recv_timeout=0.3)
            for n in range(4, 8)
        ]

        def body(env):
            try:
                return legacy_broadcast(
                    env, 4, "x" if env.my_node == 4 else None
                )
            except TimeoutError:
                return "timeout"

        # Root is env.my_node == 4?  The library tests my_node == 0 —
        # *nobody* is node 0 on this group, so every copy waits to
        # receive and the root never sends: total deadlock.
        results = par(*[lambda e=e: body(e) for e in envs])
        assert all(r == "timeout" for r in results)
        # ...and stray messages for nodes 0..3 (none here) would land in
        # foreign mailboxes: the hazard the adaptation removes.

    def test_adapted_library_is_relocatable(self):
        """The same routines, handed the adapted environment, run on any
        processor subset (§3.5's requirement)."""
        rt = IntegratedRuntime(8)
        group = rt.processors(4, 4)  # nodes 4..7

        def program(ctx, index, out):
            env = AdaptedEnvironment(ctx)
            value = legacy_broadcast(env, ctx.num_procs,
                                     42.0 if env.my_node == 0 else None)
            out[0] = value

        result = rt.call(group, program, [Index(), Reduce("double", 1, "min")])
        assert result.status is Status.OK
        assert result.reductions[0] == 42.0


class TestMessageConflictDefect:
    """§D/§5.3: the untyped receives intercept foreign traffic; the
    adapted environment's typed selective receives do not."""

    def test_legacy_intercepts_pcn_traffic(self):
        machine = Machine(2)
        env = CosmicEnvironment(machine, 1)
        # A PCN-layer message arrives first...
        machine.send(0, 1, "pcn-internal", mtype=MessageType.PCN)
        machine.send(0, 1, "dp-data", mtype=MessageType.UNTYPED)
        # ...and the legacy receive steals it.
        assert env.xrecv(timeout=1) == "pcn-internal"

    def test_adapted_env_ignores_pcn_traffic(self):
        rt = IntegratedRuntime(2)

        def program(ctx, index, out):
            env = AdaptedEnvironment(ctx)
            if env.my_node == 0:
                env.xsend(1, 7.5)
                out[0] = 0.0
            else:
                # PCN-typed noise delivered straight to this node's
                # mailbox must be invisible to the adapted receive.
                rt.machine.send(
                    0, ctx.processor_number, "pcn-noise",
                    mtype=MessageType.PCN, tag="noise",
                )
                out[0] = env.xrecv(timeout=5)

        result = rt.call(
            rt.all_processors(), program,
            [Index(), Reduce("double", 1, "max")],
        )
        assert result.status is Status.OK
        assert result.reductions[0] == 7.5


class TestParameterAdaptation:
    """§D: nested arrays-of-arrays -> flat local sections and back."""

    def test_flatten_roundtrip(self):
        values = np.arange(12.0).reshape(3, 4)
        legacy = LegacyMatrix.from_values(values)
        flat = flatten_legacy_matrix(legacy)
        assert flat.shape == (12,)
        back = unflatten_to_legacy(flat, 3, 4)
        assert back.data == legacy.data

    def test_legacy_matvec_over_flat_sections(self):
        """The unmodified row-oriented legacy routine runs on data that
        lived in a flat distributed-array section."""
        rt = IntegratedRuntime(4)
        n = 8
        rng = np.random.default_rng(3)
        a_vals = rng.standard_normal((n, n))
        x_vals = rng.standard_normal(n)
        a = rt.array("double", (n, n), distrib=[("block", 4), "*"])
        a.from_numpy(a_vals)

        def program(ctx, index, sec, out):
            rows = interior(sec).shape[0]
            legacy = unflatten_to_legacy(
                interior(sec).reshape(-1), rows, n
            )
            y_rows = legacy_matvec(legacy, list(x_vals))
            out[:] = 0.0
            out[index * rows : (index + 1) * rows] = y_rows

        result = rt.call(
            rt.all_processors(), program,
            [Index(), Local(a.array_id), Reduce("double", n, "sum")],
        )
        assert result.status is Status.OK
        assert np.allclose(result.reductions[0], a_vals @ x_vals)
        a.free()
