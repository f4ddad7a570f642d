"""Coupled climate simulation (§2.3.1, Fig 2.1).

"The simulation consists of an ocean simulation and an atmosphere
simulation.  Each simulation is a data-parallel program that performs a
time-stepped simulation; at each time step, the two simulations exchange
boundary data.  This exchange of boundary data is performed by a
task-parallel top layer."

Here each domain is a bordered distributed array relaxed by the Jacobi heat
kernel (:mod:`repro.spmd.stencil`); the two domains share an interface: the
atmosphere's bottom row sits above the ocean's top row.  Each step the
task-parallel level reads both interface rows and writes each into the
other domain's interface (a flux-matching Dirichlet exchange) — moving data
between the two distributed arrays strictly through the TP level, as the
model requires (Fig 3.4).

The equivalence claim of FIG-2.1 is verified by :func:`run_reference`:
stepping the components sequentially on one thread of control produces
bit-identical fields, demonstrating the "distributed call ≡ sequential
call" semantics under concurrency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.calls.params import Local
from repro.core.coupled import Component, CoupledResult, CoupledSimulation
from repro.core.darray import DistributedArray
from repro.core.runtime import IntegratedRuntime
from repro.spmd.stencil import heat_steps
from repro.status import check_status


@dataclass
class ClimateDomain:
    """One domain (ocean or atmosphere): a bordered array + its group."""

    name: str
    array: DistributedArray
    grid_rows: int
    grid_cols: int

    @property
    def processors(self) -> Sequence[int]:
        """The group is whoever holds the sections now: a migration or a
        rebalance of ``array`` moves the domain's calls with it."""
        return self.array.processors


def _make_domain(
    rt: IntegratedRuntime,
    name: str,
    shape: tuple[int, int],
    processors: Sequence[int],
    initial: float,
    sweeps: int,
    grid: Optional[tuple[int, int]] = None,
) -> ClimateDomain:
    """Create a domain array with interior ``initial`` and uniform borders
    as deep as a time step has sweeps.

    Borders are fixed when the array is made (§4.2.7: changing them later
    reallocates and copies every section), and this is the program that
    knows how many sweeps a step holds: with borders ``sweeps`` deep,
    :func:`~repro.spmd.stencil.heat_steps` exchanges once a step instead
    of once a sweep.  A phase cannot ship more rows than a section has,
    so the depth is clipped by the thinnest local extent — the clip
    ``CommPlan.depth`` applies — and no border row is allocated that no
    phase can use; it is never less than the 1 the stencil needs.
    Physical-edge border cells are the zeros the section
    was created with: the Dirichlet boundary values.

    ``grid`` selects the processor-grid shape; the default decomposes by
    rows only (``(block, "*")``), keeping full-width strips per copy.  A
    2-D grid such as ``(2, 2)`` exercises four-way halo exchange instead
    (the ABL-1 trade-off applied to this application).
    """
    p = len(processors)
    if grid is None:
        grid = (p, 1)
    if grid[0] * grid[1] != p:
        raise ValueError(f"grid {grid} does not use {p} processors")
    depth = max(1, min(sweeps, shape[0] // grid[0], shape[1] // grid[1]))
    array = DistributedArray.create(
        rt.machine,
        "double",
        shape,
        processors,
        [("block", grid[0]), ("block", grid[1])],
        borders=[depth] * 4,
    )
    field = np.full(shape, initial, dtype=np.float64)
    array.from_numpy(field)
    return ClimateDomain(
        name=name,
        array=array,
        grid_rows=grid[0],
        grid_cols=grid[1],
    )


def _domain_step(rt: IntegratedRuntime, domain: ClimateDomain, sweeps: int) -> None:
    result = rt.call(
        domain.processors,
        heat_steps,
        [domain.grid_rows, domain.grid_cols, sweeps, Local(domain.array.array_id)],
    )
    check_status(result.status, f"{domain.name} step failed")


def _exchange_interface(
    rt: IntegratedRuntime,
    ocean: ClimateDomain,
    atmosphere: ClimateDomain,
    coupling: float,
) -> None:
    """TP-level boundary exchange: relax both interface rows toward their
    average (flux matching).  Reads move each row as one region (one
    request per owning processor, not one per element); writes land as
    one fused per-owner ``write_region_local`` carrying only the cells
    that owner holds, executed *at* the owner."""
    o_dims = ocean.array.dims
    a_dims = atmosphere.array.dims
    assert o_dims[1] == a_dims[1], "interface widths must match"
    width = o_dims[1]
    ocean_row = [(0, 1), (0, width)]
    atmos_row = [(a_dims[0] - 1, a_dims[0]), (0, width)]
    ocean_top = ocean.array.read_region(ocean_row)[0]
    atmos_bottom = atmosphere.array.read_region(atmos_row)[0]
    mean = 0.5 * (ocean_top + atmos_bottom)
    new_ocean = (1 - coupling) * ocean_top + coupling * mean
    new_atmos = (1 - coupling) * atmos_bottom + coupling * mean
    # Write back only the interface cells, fused per owning processor:
    # each owner gets one write_region_local carrying exactly its slice
    # of the row, executed at the owner — no whole-row round trip
    # through an intermediary manager hop.
    ocean.array.write_region_targeted(ocean_row, new_ocean[np.newaxis, :])
    atmosphere.array.write_region_targeted(
        atmos_row, new_atmos[np.newaxis, :]
    )


@dataclass
class ClimateRun:
    ocean: np.ndarray
    atmosphere: np.ndarray
    coupled_result: Optional[CoupledResult]

    def interface_gap(self) -> float:
        """|ocean top - atmosphere bottom| after the run; coupling should
        shrink this toward 0."""
        return float(
            np.max(np.abs(self.ocean[0, :] - self.atmosphere[-1, :]))
        )


class ClimateSimulation:
    """The Fig 2.1 system: two domains + TP exchange."""

    def __init__(
        self,
        rt: IntegratedRuntime,
        shape: tuple[int, int] = (8, 16),
        ocean_temp: float = 10.0,
        atmos_temp: float = -10.0,
        coupling: float = 0.5,
        sweeps_per_step: int = 2,
        domain_grid: Optional[tuple[int, int]] = None,
    ) -> None:
        if rt.num_nodes % 2 != 0:
            raise ValueError("climate simulation needs an even node count")
        self.rt = rt
        self.coupling = coupling
        self.sweeps = sweeps_per_step
        g_ocean, g_atmos = rt.split_processors(2)
        self.ocean = _make_domain(
            rt, "ocean", shape, g_ocean, ocean_temp, sweeps_per_step,
            grid=domain_grid,
        )
        self.atmosphere = _make_domain(
            rt, "atmosphere", shape, g_atmos, atmos_temp, sweeps_per_step,
            grid=domain_grid,
        )

    def _exchange(self, _components, _k) -> None:
        _exchange_interface(
            self.rt, self.ocean, self.atmosphere, self.coupling
        )

    def run(self, steps: int) -> ClimateRun:
        """Concurrent components, TP exchange each step (the paper's
        structure)."""
        sim = CoupledSimulation(
            [
                Component(
                    "ocean",
                    lambda c, k: _domain_step(self.rt, self.ocean, self.sweeps),
                    self.ocean.processors,
                ),
                Component(
                    "atmosphere",
                    lambda c, k: _domain_step(
                        self.rt, self.atmosphere, self.sweeps
                    ),
                    self.atmosphere.processors,
                ),
            ],
            exchange=self._exchange,
        )
        result = sim.run(steps)
        return ClimateRun(
            ocean=self.ocean.array.to_numpy(),
            atmosphere=self.atmosphere.array.to_numpy(),
            coupled_result=result,
        )

    def run_reference(self, steps: int) -> ClimateRun:
        """Same computation with components stepped *sequentially* —
        the semantic-equivalence baseline for FIG-2.1."""
        for k in range(steps):
            _domain_step(self.rt, self.ocean, self.sweeps)
            _domain_step(self.rt, self.atmosphere, self.sweeps)
            self._exchange(None, k)
        return ClimateRun(
            ocean=self.ocean.array.to_numpy(),
            atmosphere=self.atmosphere.array.to_numpy(),
            coupled_result=None,
        )

    def free(self) -> None:
        self.ocean.array.free()
        self.atmosphere.array.free()
