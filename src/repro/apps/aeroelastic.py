"""Aeroelasticity simulation (§2.3.1's second example, multidisciplinary
design and optimization).

"An example is an aeroelasticity simulation of a flexible wing in steady
flight.  Airflow over the wing imposes pressures that affect the shape of
the wing; at the same time, changes in the wing's shape affect the
aerodynamic pressures.  Thus, the problem consists of two interdependent
subproblems, one aerodynamic and one structural ... each subproblem can be
solved by a data-parallel program, with the interaction between them
performed by a task-parallel top-level program."

The model (deliberately simple, but genuinely two-way coupled):

* **aerodynamics** (group A): the pressure along the span responds to the
  local deflection — p = q * (alpha - deflection'), smoothed by a Jacobi
  relaxation on the distributed pressure vector (a stand-in for a panel
  solve);
* **structures** (group B): an elastic foundation model — deflection w
  solves (K + k I) w = p where K is a diagonally dominant stiffness
  matrix, solved by distributed Jacobi iteration;
* **task-parallel coupling**: each iteration the TP level feeds the
  aerodynamic pressures into the structural load and the structural
  deflections back into the aerodynamic boundary condition, with
  under-relaxation, until the fixed point converges.

Both component solves are distributed calls on disjoint processor groups;
the fixed-point loop is the task-parallel top level of Fig 2.1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.calls.params import Local, Reduce
from repro.core.runtime import IntegratedRuntime
from repro.pcn.composition import par
from repro.perf import get_perf_layer
from repro.spmd.linalg import (
    interior,
    jacobi_iterate,
    mat_diagonally_dominant,
)
from repro.status import check_status


def _aero_pressure(ctx, q_dyn, alpha, deflection_in, pressure) -> None:
    """DP aerodynamic model: pressure from incidence minus local twist,
    then one smoothing sweep with halo exchange over the group.

    Precondition: ``deflection_in`` is the local section of a managed
    array with borders at least 1 deep — the neighbour's cell arrives in
    its west border, the only one the kernel reads, so the only one any
    copy posts a strip for."""
    w = interior(deflection_in)
    p = interior(pressure)
    plans = get_perf_layer(ctx.machine).plans
    record, plan = plans.engage(ctx.node, deflection_in)
    exchange = plan.begin(
        plans, record, deflection_in.full(),
        record.section_number_for(ctx.processor_number), 1,
        (ctx.group, 0), ctx.processor_number, sides=("west",),
    )
    # local "twist": finite difference of deflection along the span; the
    # first cell of each section differences against the left neighbour's
    # last cell (root section keeps twist[0] = 0).  That cell travels as a
    # halo_bulk strip posted here and claimed after the overlapped
    # arithmetic.
    twist = np.zeros_like(w)
    exchange.prefetch()
    twist[1:] = w[1:] - w[:-1]
    exchange.complete()
    if exchange.receives("west"):
        twist[0] = w[0] - float(deflection_in.full()[plan.pad - 1])
    p[:] = float(q_dyn) * (float(alpha) - twist)
    # one smoothing pass (neighbour average) to mimic panel influence
    smoothed = p.copy()
    if p.size >= 3:
        smoothed[1:-1] = 0.25 * p[:-2] + 0.5 * p[1:-1] + 0.25 * p[2:]
    p[:] = smoothed


# The structural solve's cap and the residual ||K w - load||_2 it must
# reach under it.  The Jacobi iteration matrix of a 16-point K has
# spectral radius 0.165, so fourteen sweeps from the last coupling
# iteration's deflection shrink the error by 1e-11: the largest residual
# of a run (its second iteration, when the load first appears) reads
# 8e-12 at alpha = 1, the top of ``design_for_lift``'s default bounds.
_STRUCTURAL_SWEEPS = 14
_STRUCTURAL_TOLERANCE = 1e-10


def _structural_solve(ctx, n, stiffness, load, deflection, res_out) -> None:
    """DP structural model: Jacobi solve of (K) w = load, from the
    current w.  K is diagonally dominant and not symmetric — the
    precondition of ``jacobi_iterate``, not of ``conjugate_gradient``."""
    jacobi_iterate(
        ctx, int(n), _STRUCTURAL_SWEEPS, stiffness, load, deflection, res_out
    )


def _in_turn(*blocks):
    """Sequential composition with ``par``'s shape."""
    return [block() for block in blocks]


@dataclass
class AeroelasticResult:
    """``converged``: the coupling met its tolerance *and* every
    structural solve on the way met its own (``residual_history`` holds
    one ||K w - load||_2 per coupling iteration)."""

    iterations: int
    converged: bool
    coupling_history: list
    residual_history: list
    pressures: np.ndarray
    deflections: np.ndarray

    def final_change(self) -> float:
        return self.coupling_history[-1] if self.coupling_history else 0.0


class AeroelasticSimulation:
    """The two-discipline fixed-point coupling of §2.3.1."""

    def __init__(
        self,
        rt: IntegratedRuntime,
        span_points: int = 16,
        q_dyn: float = 2.0,
        alpha: float = 0.1,
        relaxation: float = 0.7,
        seed: int = 0,
    ) -> None:
        if rt.num_nodes % 2 != 0:
            raise ValueError("aeroelastic simulation needs an even node count")
        if span_points % (rt.num_nodes // 2) != 0:
            raise ValueError("span_points must divide by the group size")
        self.rt = rt
        self.n = span_points
        self.q_dyn = q_dyn
        self.alpha = alpha
        self.relaxation = relaxation
        g_aero, g_struct = rt.split_processors(2)
        self.g_aero = g_aero
        self.g_struct = g_struct

        # Aerodynamic state (group A): pressures + the deflection copy the
        # aero solver reads.
        self.pressure = rt.array("double", (span_points,), g_aero, ["block"])
        # 1-deep borders let the aero solver pull the left neighbour's
        # last deflection cell through a precompiled halo plan
        # (prefetch/complete) instead of a point-to-point scalar message.
        self.aero_deflection = rt.array(
            "double", (span_points,), g_aero, ["block"], borders=[1, 1]
        )
        # Structural state (group B): stiffness, load, deflection.
        p = len(g_struct)
        self.stiffness = rt.array(
            "double", (span_points, span_points), g_struct,
            [("block", p), "*"],
        )
        self.load = rt.array("double", (span_points,), g_struct, ["block"])
        self.deflection = rt.array(
            "double", (span_points,), g_struct, ["block"]
        )
        check_status(
            rt.call(
                g_struct,
                mat_diagonally_dominant,
                [seed, span_points, Local(self.stiffness.array_id)],
            ).status
        )

    # -- one coupled iteration -------------------------------------------------

    def _solve_components(self, compose) -> float:
        """Run both discipline solves under ``compose`` — ``par``:
        concurrently — and return the structural residual (they read only
        their own arrays, so the concurrency is safe — Fig 3.4)."""

        def aero():
            return self.rt.call(
                self.g_aero,
                _aero_pressure,
                [
                    self.q_dyn,
                    self.alpha,
                    Local(self.aero_deflection.array_id),
                    Local(self.pressure.array_id),
                ],
            )

        def structural():
            return self.rt.call(
                self.g_struct,
                _structural_solve,
                [
                    self.n,
                    Local(self.stiffness.array_id),
                    Local(self.load.array_id),
                    Local(self.deflection.array_id),
                    Reduce("double", 1, "max"),
                ],
            )

        aero_result, struct_result = compose(aero, structural)
        check_status(aero_result.status, "aerodynamic solve failed")
        check_status(struct_result.status, "structural solve failed")
        return float(struct_result.reductions[0])

    def _exchange(self) -> float:
        """TP-level coupling: pressures -> structural load, deflections ->
        aero boundary condition (under-relaxed).  Returns the max change
        applied to the load — the fixed-point progress measure."""
        pressures = self.pressure.to_numpy()
        old_load = self.load.to_numpy()
        new_load = (
            (1 - self.relaxation) * old_load + self.relaxation * pressures
        )
        self.load.from_numpy(new_load)
        self.aero_deflection.from_numpy(self.deflection.to_numpy())
        return float(np.max(np.abs(new_load - old_load)))

    def _iterate(
        self, compose, max_iterations: int, tolerance: float
    ) -> AeroelasticResult:
        """The fixed-point loop, the components composed by ``compose``."""
        history, residuals = [], []
        for _ in range(max_iterations):
            residuals.append(self._solve_components(compose))
            history.append(self._exchange())
            if history[-1] < tolerance:
                break
        return AeroelasticResult(
            iterations=len(history),
            converged=bool(history) and history[-1] < tolerance
            and max(residuals) <= _STRUCTURAL_TOLERANCE,
            coupling_history=history,
            residual_history=residuals,
            pressures=self.pressure.to_numpy(),
            deflections=self.deflection.to_numpy(),
        )

    def run(
        self, max_iterations: int = 20, tolerance: float = 1e-8
    ) -> AeroelasticResult:
        return self._iterate(par, max_iterations, tolerance)

    def run_reference(
        self, max_iterations: int = 20, tolerance: float = 1e-8
    ) -> AeroelasticResult:
        """Sequential component stepping — the semantic-equivalence
        baseline (the components' reads/writes are disjoint, so the result
        must be identical)."""
        return self._iterate(_in_turn, max_iterations, tolerance)

    def free(self) -> None:
        for arr in (
            self.pressure,
            self.aero_deflection,
            self.stiffness,
            self.load,
            self.deflection,
        ):
            arr.free()


# ---------------------------------------------------------------------------
# the "optimization" in "multidisciplinary design and optimization"
# ---------------------------------------------------------------------------


@dataclass
class DesignResult:
    """Outcome of the outer design-optimization loop."""

    alpha: float
    lift: float
    target_lift: float
    evaluations: int
    converged: bool

    def lift_error(self) -> float:
        return abs(self.lift - self.target_lift)


def total_lift(sim: "AeroelasticSimulation") -> float:
    """Integrated pressure over the span — the design objective."""
    return float(np.sum(sim.pressure.to_numpy()))


def design_for_lift(
    rt: IntegratedRuntime,
    target_lift: float,
    span_points: int = 16,
    alpha_bounds: tuple = (0.0, 1.0),
    tolerance: float = 1e-6,
    max_evaluations: int = 30,
    seed: int = 0,
) -> DesignResult:
    """Find the angle of attack producing ``target_lift`` (§2.3.1 MDO).

    The outer loop is plain task-parallel control logic (bisection on the
    design variable); every objective evaluation is a full coupled
    aeroelastic solve — concurrent distributed calls under a sequential
    optimizer, the MDO structure the thesis motivates.

    Precondition: lift is monotone in alpha over ``alpha_bounds`` (true
    for this model) and the target lies within the bounds' lift range.
    A design whose lift came from a coupled solve that did not converge
    (:class:`AeroelasticResult`) is reported as not converged.
    """

    unsolved = []  # design points whose coupled solve did not converge

    def evaluate(alpha: float) -> float:
        sim = AeroelasticSimulation(
            rt, span_points=span_points, alpha=alpha, seed=seed
        )
        if not sim.run(max_iterations=40, tolerance=1e-9).converged:
            unsolved.append(alpha)
        lift = total_lift(sim)
        sim.free()
        return lift

    lo, hi = alpha_bounds
    lift_lo = evaluate(lo)
    lift_hi = evaluate(hi)
    evaluations = 2
    if not (min(lift_lo, lift_hi) - tolerance <= target_lift
            <= max(lift_lo, lift_hi) + tolerance):
        return DesignResult(
            alpha=lo if abs(lift_lo - target_lift) < abs(
                lift_hi - target_lift
            ) else hi,
            lift=lift_lo if abs(lift_lo - target_lift) < abs(
                lift_hi - target_lift
            ) else lift_hi,
            target_lift=target_lift,
            evaluations=evaluations,
            converged=False,
        )
    increasing = lift_hi >= lift_lo
    alpha, lift = lo, lift_lo
    while evaluations < max_evaluations:
        alpha = 0.5 * (lo + hi)
        lift = evaluate(alpha)
        evaluations += 1
        if abs(lift - target_lift) <= tolerance:
            return DesignResult(
                alpha=alpha,
                lift=lift,
                target_lift=target_lift,
                evaluations=evaluations,
                converged=not unsolved,
            )
        if (lift < target_lift) == increasing:
            lo = alpha
        else:
            hi = alpha
    return DesignResult(
        alpha=alpha,
        lift=lift,
        target_lift=target_lift,
        evaluations=evaluations,
        converged=abs(lift - target_lift) <= tolerance and not unsolved,
    )
