"""The aeroelasticity simulation (§2.3.1, multidisciplinary coupling)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps import aeroelastic
from repro.apps.aeroelastic import AeroelasticSimulation
from repro.core.runtime import IntegratedRuntime
from repro.perf import get_perf_layer


@pytest.fixture
def rt():
    return IntegratedRuntime(8)


class TestFixedPoint:
    def test_coupling_converges(self, rt):
        sim = AeroelasticSimulation(rt, span_points=16)
        result = sim.run(max_iterations=40, tolerance=1e-8)
        assert result.converged
        assert result.final_change() < 1e-8
        sim.free()

    def test_coupling_history_decreases(self, rt):
        sim = AeroelasticSimulation(rt, span_points=16)
        result = sim.run(max_iterations=15, tolerance=0.0)
        h = result.coupling_history
        # under-relaxed fixed point: changes shrink geometrically-ish
        assert h[-1] < h[0]
        assert h[-1] < h[len(h) // 2]
        sim.free()

    def test_fixed_point_satisfies_both_disciplines(self, rt):
        """At convergence, the deflection solves the structural system for
        the (converged) aerodynamic load."""
        sim = AeroelasticSimulation(rt, span_points=16, seed=4)
        result = sim.run(max_iterations=60, tolerance=1e-10)
        assert result.converged
        stiffness = sim.stiffness.to_numpy()
        load = sim.load.to_numpy()
        deflection = sim.deflection.to_numpy()
        assert np.allclose(stiffness @ deflection, load, atol=1e-6)
        sim.free()

    def test_nonzero_physics(self, rt):
        """A nonzero angle of attack produces nonzero pressures and
        deflections (the coupling actually transfers data)."""
        sim = AeroelasticSimulation(rt, span_points=16, alpha=0.2)
        result = sim.run(max_iterations=40)
        assert np.any(np.abs(result.pressures) > 1e-6)
        assert np.any(np.abs(result.deflections) > 1e-9)
        sim.free()

    def test_zero_alpha_trivial_fixed_point(self, rt):
        sim = AeroelasticSimulation(rt, span_points=16, alpha=0.0)
        result = sim.run(max_iterations=40)
        assert result.converged
        assert np.allclose(result.deflections, 0.0, atol=1e-8)
        sim.free()


class TestStructuralSolve:
    """The inner solve has a cap and a tolerance; which of them ended it
    is part of the result."""

    def test_every_structural_solve_meets_its_tolerance(self, rt):
        sim = AeroelasticSimulation(rt, alpha=0.25)
        before = rt.machine.traffic_snapshot()["messages"]
        result = sim.run(max_iterations=40, tolerance=1e-9)
        routed = rt.machine.traffic_snapshot()["messages"] - before
        assert result.converged and result.iterations == 18
        assert len(result.residual_history) == 18
        assert max(result.residual_history) <= 1e-10
        # 2,059 messages an iteration when the solver was a CG that ran
        # to its cap on a matrix that is not symmetric.
        assert routed < 5000
        sim.free()

    def test_a_solve_that_ends_on_its_cap_is_reported(self, rt, monkeypatch):
        monkeypatch.setattr(aeroelastic, "_STRUCTURAL_SWEEPS", 2)
        sim = AeroelasticSimulation(rt, alpha=0.25)
        result = sim.run(max_iterations=40, tolerance=1e-9)
        sim.free()
        # Warm-started, even two sweeps a solve reach the fixed point ...
        assert result.final_change() < 1e-9
        # ... but some solve on the way ended above its tolerance.
        assert max(result.residual_history) > 1e-10
        assert not result.converged
        design = aeroelastic.design_for_lift(
            rt, target_lift=10.0, tolerance=1e-4, max_evaluations=30
        )
        assert design.lift_error() <= 1e-4 and not design.converged


class TestSemanticEquivalence:
    def test_concurrent_equals_sequential(self, rt):
        sim_a = AeroelasticSimulation(rt, span_points=16, seed=9)
        run_a = sim_a.run(max_iterations=10, tolerance=0.0)
        sim_a.free()
        rt_b = IntegratedRuntime(8)
        sim_b = AeroelasticSimulation(rt_b, span_points=16, seed=9)
        run_b = sim_b.run_reference(max_iterations=10, tolerance=0.0)
        sim_b.free()
        assert np.array_equal(run_a.pressures, run_b.pressures)
        assert np.array_equal(run_a.deflections, run_b.deflections)
        assert run_a.coupling_history == run_b.coupling_history


class TestHaloTraffic:
    def test_only_the_claimed_border_is_exchanged(self, rt):
        """The aero kernel reads its west border only.  Every strip posted
        is claimed — 3 a call on a group of four, none toward the east —
        and nothing stays parked in the rendezvous table."""
        sim = AeroelasticSimulation(rt, span_points=16, seed=9)
        run = sim.run(max_iterations=5, tolerance=0.0)
        diag = get_perf_layer(rt.machine).plans.diagnostics()
        assert diag["strips_sent"] == diag["strips_claimed"] == 3 * 5
        assert diag["pending_rendezvous"] == 0
        sim.free()
        rt_b = IntegratedRuntime(8)
        sim_b = AeroelasticSimulation(rt_b, span_points=16, seed=9)
        reference = sim_b.run_reference(max_iterations=5, tolerance=0.0)
        sim_b.free()
        assert np.array_equal(run.pressures, reference.pressures)
        assert np.array_equal(run.deflections, reference.deflections)


class TestValidation:
    def test_odd_nodes_rejected(self):
        with pytest.raises(ValueError):
            AeroelasticSimulation(IntegratedRuntime(5))

    def test_indivisible_span_rejected(self, rt):
        with pytest.raises(ValueError):
            AeroelasticSimulation(rt, span_points=15)


class TestDesignOptimization:
    """The 'optimization' in multidisciplinary design and optimization:
    an outer design loop whose every objective evaluation is a full
    coupled solve."""

    def test_design_hits_target_lift(self, rt):
        from repro.apps.aeroelastic import design_for_lift

        result = design_for_lift(
            rt, target_lift=10.0, tolerance=1e-4, max_evaluations=30
        )
        assert result.converged
        assert result.lift_error() <= 1e-4
        assert 0.0 < result.alpha < 1.0

    def test_lift_monotone_in_alpha(self, rt):
        from repro.apps.aeroelastic import AeroelasticSimulation, total_lift

        lifts = []
        for alpha in (0.0, 0.25, 0.5):
            sim = AeroelasticSimulation(rt, alpha=alpha)
            sim.run(max_iterations=40)
            lifts.append(total_lift(sim))
            sim.free()
        assert lifts[0] < lifts[1] < lifts[2]

    def test_unreachable_target_reports_not_converged(self, rt):
        from repro.apps.aeroelastic import design_for_lift

        result = design_for_lift(
            rt, target_lift=1e9, tolerance=1e-4, max_evaluations=6
        )
        assert not result.converged
        assert result.evaluations == 2  # bounds probe only

    def test_zero_target_found_at_lower_bound(self, rt):
        from repro.apps.aeroelastic import design_for_lift

        result = design_for_lift(
            rt, target_lift=0.0, tolerance=1e-6, max_evaluations=20
        )
        # lift(0) == 0 exactly; the bounds probe itself may satisfy it or
        # bisection walks to ~0.
        assert result.lift_error() <= 1e-4 or result.alpha < 0.01
