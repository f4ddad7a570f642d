"""The coupled climate simulation (§2.3.1, Fig 2.1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.climate import ClimateSimulation
from repro.arrays.manager import get_array_manager
from repro.core.runtime import IntegratedRuntime
from repro.perf import get_perf_layer


@pytest.fixture
def rt():
    return IntegratedRuntime(8)


def mirror_fields(shape, ocean_temp=10.0, atmos_temp=-10.0):
    """Both domains as serial NumPy arrays inside a 1-deep frame of zeros:
    the Dirichlet values the sections' physical-edge border cells hold."""
    fields = {}
    for name, value in (("ocean", ocean_temp), ("atmosphere", atmos_temp)):
        full = np.zeros((shape[0] + 2, shape[1] + 2))
        full[1:-1, 1:-1] = value
        fields[name] = full
    return fields


def mirror_step(fields, sweeps, coupling=0.5):
    """One coupled step in plain NumPy, in the kernel's own order of
    additions, so that the comparison can be bit for bit."""
    for full in fields.values():
        for _ in range(sweeps):
            full[1:-1, 1:-1] = 0.25 * (
                full[:-2, 1:-1] + full[2:, 1:-1]
                + full[1:-1, :-2] + full[1:-1, 2:]
            )
    ocean_top = fields["ocean"][1, 1:-1].copy()
    atmos_bottom = fields["atmosphere"][-2, 1:-1].copy()
    mean = 0.5 * (ocean_top + atmos_bottom)
    fields["ocean"][1, 1:-1] = (1 - coupling) * ocean_top + coupling * mean
    fields["atmosphere"][-2, 1:-1] = (
        (1 - coupling) * atmos_bottom + coupling * mean
    )


def assert_matches_mirror(run, fields):
    assert np.array_equal(run.ocean, fields["ocean"][1:-1, 1:-1])
    assert np.array_equal(run.atmosphere, fields["atmosphere"][1:-1, 1:-1])


def section_borders(rt, domain):
    """The borders every section of ``domain`` was allocated with."""
    manager = get_array_manager(rt.machine)
    array_id = domain.array.array_id
    borders = {
        manager._lookup(rt.machine.processor(p), array_id).section.borders
        for p in domain.array.processors
    }
    assert len(borders) == 1
    return borders.pop()


class TestCoupling:
    def test_interface_gap_shrinks(self, rt):
        """Coupling drives the ocean-top and atmosphere-bottom temperatures
        together."""
        sim = ClimateSimulation(
            rt, shape=(8, 16), ocean_temp=10.0, atmos_temp=-10.0
        )
        initial_gap = 20.0
        run = sim.run(steps=6)
        assert run.interface_gap() < initial_gap / 2
        sim.free()

    def test_uncoupled_domains_stay_apart(self, rt):
        """Ablation: with coupling 0 the exchange is inert and the gap
        decays only through each domain's own edge losses."""
        coupled = ClimateSimulation(rt, shape=(8, 16), coupling=0.9)
        gap_coupled = coupled.run(4).interface_gap()
        coupled.free()
        uncoupled = ClimateSimulation(rt, shape=(8, 16), coupling=0.0)
        gap_uncoupled = uncoupled.run(4).interface_gap()
        uncoupled.free()
        assert gap_coupled < gap_uncoupled

    def test_fields_bounded_by_initial_extremes(self, rt):
        sim = ClimateSimulation(
            rt, shape=(8, 16), ocean_temp=10.0, atmos_temp=-10.0
        )
        run = sim.run(5)
        for field in (run.ocean, run.atmosphere):
            assert field.max() <= 10.0 + 1e-9
            assert field.min() >= -10.0 - 1e-9
        sim.free()


class TestSemanticEquivalence:
    def test_concurrent_equals_sequential(self, rt):
        """FIG-2.1's key claim: running the two data-parallel components
        concurrently (the paper's structure) produces *bit-identical*
        fields to stepping them one at a time — the distributed call is
        semantically a sequential call (§2.1)."""
        sim_a = ClimateSimulation(rt, shape=(8, 16))
        run_a = sim_a.run(5)
        sim_a.free()

        rt_b = IntegratedRuntime(8)
        sim_b = ClimateSimulation(rt_b, shape=(8, 16))
        run_b = sim_b.run_reference(5)
        sim_b.free()

        assert np.array_equal(run_a.ocean, run_b.ocean)
        assert np.array_equal(run_a.atmosphere, run_b.atmosphere)

    def test_deterministic_across_runs(self, rt):
        sim_a = ClimateSimulation(rt, shape=(8, 16))
        first = sim_a.run(4)
        sim_a.free()
        rt2 = IntegratedRuntime(8)
        sim_b = ClimateSimulation(rt2, shape=(8, 16))
        second = sim_b.run(4)
        sim_b.free()
        assert np.array_equal(first.ocean, second.ocean)


class TestBorderDepth:
    """Borders as deep as a step has sweeps, clipped by the thinnest local
    extent; whatever the depth, the fields are the serial mirror's."""

    @pytest.mark.parametrize("grid", [None, (2, 2)])
    @pytest.mark.parametrize("sweeps", [1, 2, 3, 5])
    def test_run_equals_serial_mirror(self, rt, sweeps, grid):
        shape = (8, 16)
        sim = ClimateSimulation(
            rt, shape=shape, sweeps_per_step=sweeps, domain_grid=grid
        )
        # Sections are 2 x 16 on the default (4, 1) grid, 4 x 8 on (2, 2).
        depth = min(sweeps, 2 if grid is None else 4)
        for domain in (sim.ocean, sim.atmosphere):
            assert section_borders(rt, domain) == (depth,) * 4
        fields = mirror_fields(shape)
        for _ in range(3):
            run = sim.run(1)
            mirror_step(fields, sweeps)
            assert_matches_mirror(run, fields)
        sim.free()

    def test_sections_thinner_than_the_step_run_several_phases(self, rt):
        """2-row sections, 5 sweeps a step: borders 2 deep, so each call
        is three phases (2 + 2 + 1 sweeps) for each of 4 copies."""
        sim = ClimateSimulation(rt, shape=(8, 16), sweeps_per_step=5)
        registry = get_perf_layer(rt.machine).plans
        before = registry.diagnostics()["exchanges"]
        sim.run(1)
        assert registry.diagnostics()["exchanges"] - before == 2 * 4 * 3
        sim.free()

    def test_concurrent_equals_sequential_at_depth_3(self, rt):
        sim_a = ClimateSimulation(
            rt, shape=(16, 16), sweeps_per_step=3, domain_grid=(2, 2)
        )
        assert sim_a.ocean.array.layout.borders == (3, 3, 3, 3)
        run_a = sim_a.run(4)
        sim_a.free()
        sim_b = ClimateSimulation(
            IntegratedRuntime(8), shape=(16, 16), sweeps_per_step=3,
            domain_grid=(2, 2),
        )
        run_b = sim_b.run_reference(4)
        sim_b.free()
        assert np.array_equal(run_a.ocean, run_b.ocean)
        assert np.array_equal(run_a.atmosphere, run_b.atmosphere)

    def test_migration_between_steps_keeps_the_deep_plan(self, rt):
        """A section of a depth-2 domain moves to a new processor between
        two steps: the ocean's plan, which is its layout's, is neither
        invalidated nor compiled again, and the next step — its strips
        routed to the new owner — is still the mirror's, bit for bit."""
        shape = (8, 16)
        sim = ClimateSimulation(rt, shape=shape, sweeps_per_step=2)
        fields = mirror_fields(shape)
        run = sim.run(1)
        mirror_step(fields, 2)
        assert_matches_mirror(run, fields)

        registry = get_perf_layer(rt.machine).plans
        before = registry.diagnostics()
        spare = rt.machine.add_processor()
        assert sim.ocean.array.migrate({3: spare}) == [3]
        assert section_borders(rt, sim.ocean) == (2, 2, 2, 2)

        run = sim.run(1)
        mirror_step(fields, 2)
        assert_matches_mirror(run, fields)
        after = registry.diagnostics()
        assert after["invalidations"] == before["invalidations"]
        assert after["compiled"] == before["compiled"]
        assert after["pending_rendezvous"] == 0
        sim.free()

    def test_free_leaves_nothing_behind(self, rt):
        sim = ClimateSimulation(rt, shape=(8, 16), sweeps_per_step=2)
        sim.run(2)
        array_ids = [sim.ocean.array.array_id, sim.atmosphere.array.array_id]
        sim.free()
        diag = get_perf_layer(rt.machine).plans.diagnostics()
        assert diag["plans"] == 0
        assert diag["pending_rendezvous"] == 0
        manager = get_array_manager(rt.machine)
        for array_id in array_ids:
            assert manager.durability_state(array_id) is None
            for node in rt.machine.processors():
                assert manager._lookup(node, array_id) is None


class TestValidation:
    def test_odd_node_count_rejected(self):
        with pytest.raises(ValueError):
            ClimateSimulation(IntegratedRuntime(5))

    def test_exchange_fraction_reported(self, rt):
        sim = ClimateSimulation(rt, shape=(8, 16))
        run = sim.run(3)
        assert run.coupled_result is not None
        assert 0.0 <= run.coupled_result.exchange_fraction() <= 1.0
        sim.free()


class TestDomainGrids:
    def test_2d_decomposition_matches_row_decomposition(self, rt):
        """The physics is decomposition-independent: a (2,2) grid per
        domain produces exactly the same fields as row strips."""
        sim_rows = ClimateSimulation(rt, shape=(8, 16))
        run_rows = sim_rows.run(4)
        sim_rows.free()

        rt2 = IntegratedRuntime(8)
        sim_grid = ClimateSimulation(rt2, shape=(8, 16), domain_grid=(2, 2))
        run_grid = sim_grid.run(4)
        sim_grid.free()

        assert np.array_equal(run_rows.ocean, run_grid.ocean)
        assert np.array_equal(run_rows.atmosphere, run_grid.atmosphere)

    def test_bad_grid_rejected(self, rt):
        with pytest.raises(ValueError):
            ClimateSimulation(rt, shape=(8, 16), domain_grid=(3, 2))
