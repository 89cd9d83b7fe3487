"""Space-time boundary solver: causality, oracles, and probe traces."""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.integrate import quad

from heatcavity import forward, oracles
from heatcavity.forward import (
    JUMP_COEFF,
    SELF_TERM_SCALE,
    BoundaryField,
    TimeGrid,
    _lag_bounds,
    assemble_blocks,
    field_norm,
    green_probe_trace,
    green_probe_traces,
    normal_derivative_on,
    potential_at,
    solve_neumann,
    trace_on,
)
from heatcavity.geometry import CurveSpec, make_curve
from heatcavity.kernels import gamma, gamma_time_integral
from heatcavity.verify import _polar_cells

UNIT_CIRCLE = CurveSpec("circle", (0.0, 0.0, 1.0))


def disk_region(M, Nt, T):
    return assemble_blocks(make_curve(UNIT_CIRCLE, M), TimeGrid(T, Nt))


def uniform_flux(region, value=1.0):
    return np.full((region.M_total, region.grid.Nt), value)


def disk_trace_error(M, Nt, T, oracle_vals=None):
    """Relative L2 error of the uniform-flux disk trace vs the radial oracle."""
    region = disk_region(M, Nt, T)
    rho = solve_neumann(region, uniform_flux(region))
    trace = trace_on(rho, region.curves[0]).values.mean(axis=0)
    times = region.grid.times
    if oracle_vals is None:
        oracle_vals = oracles.radial_disk_trace(times)
    return float(np.linalg.norm(trace - oracle_vals) / np.linalg.norm(oracle_vals))


class TestSolveNeumann:
    def test_zero_flux_zero_density(self, disk_region):
        rho = solve_neumann(disk_region, np.zeros((16, 8)))
        assert np.all(rho.values == 0.0)

    def test_marching_causality(self, disk_region):
        k0 = 3
        flux = np.zeros((16, 8))
        flux[:, k0:] = 1.0
        rho = solve_neumann(disk_region, flux)
        scale = np.abs(rho.values).max()
        assert np.abs(rho.values[:, :k0]).max() <= 1e-12 * scale
        trace = trace_on(rho, disk_region.curves[0])
        assert np.abs(trace.values[:, :k0]).max() <= 1e-12 * np.abs(trace.values).max()

    def test_concurrent_solves_match_serial(self):
        # every call shares the region's one stepping factorization
        region = disk_region(24, 8, 0.5)
        rng = np.random.default_rng(11)
        fluxes = [rng.standard_normal((24, 8, 16)) for _ in range(32)]
        serial = [solve_neumann(region, f).values for f in fluxes]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                solves = pool.map(lambda f: solve_neumann(region, f).values, fluxes, timeout=60)
                threaded = list(solves)
        finally:
            sys.setswitchinterval(interval)
        assert all(np.array_equal(a, b) for a, b in zip(serial, threaded))

    def test_boundary_field_input_equivalent(self, disk_region):
        curve = disk_region.curves[0]
        vals = np.outer(np.cos(np.linspace(0, 2 * np.pi, 16, endpoint=False)), np.ones(8))
        a = solve_neumann(disk_region, vals)
        b = solve_neumann(disk_region, BoundaryField(curve, disk_region.grid, vals))
        assert np.array_equal(a.values, b.values)

    def test_flux_shape_mismatch_rejected(self, disk_region):
        with pytest.raises(ValueError):
            solve_neumann(disk_region, np.zeros((5, 8)))

    def test_two_component_region_accepts_field_list(self, small_setup):
        region = small_setup.cavity_system
        fo = BoundaryField(small_setup.omega, small_setup.grid, np.ones((16, 8)))
        fc = BoundaryField(small_setup.cavity, small_setup.grid, np.zeros((12, 8)))
        rho = solve_neumann(region, [fo, fc])
        assert rho.values.shape == (28, 8)
        with pytest.raises(ValueError):
            solve_neumann(region, [fo])


class TestDiskOracle:
    def test_trace_matches_radial_oracle(self):
        assert disk_trace_error(32, 32, 1.0) <= 2e-2

    def test_error_decreases_with_refinement(self):
        times32 = TimeGrid(1.0, 32).times
        times16 = TimeGrid(1.0, 16).times
        oracle32 = oracles.radial_disk_trace(times32)
        oracle16 = oracles.radial_disk_trace(times16)
        coarse = disk_trace_error(16, 16, 1.0, oracle16)
        fine = disk_trace_error(32, 32, 1.0, oracle32)
        assert fine < coarse

    def test_conservation_heat_balance(self):
        # total heat at time T equals the injected boundary flux integral
        region = disk_region(32, 32, 0.5)
        rho = solve_neumann(region, uniform_flux(region))
        pts, areas = _polar_cells(0.0, 1.0, 64)
        u_T = potential_at(rho, pts, np.array([0.5]))[:, 0]
        got = float(np.dot(areas, u_T))
        want = 2.0 * np.pi * 0.5
        assert abs(got - want) <= 2e-2 * want


class TestEvaluation:
    def test_offcurve_trace_vs_adaptive_quadrature(self):
        M, Nt, T = 32, 6, 0.3
        region = disk_region(M, Nt, T)
        th = 2 * np.pi * np.arange(M) / M
        profile = 1.0 + 0.3 * np.cos(th) - 0.2 * np.sin(2 * th)
        rho_vals = np.zeros((M, Nt))
        rho_vals[:, 1] = profile
        rho = solve_neumann(region, np.zeros((M, Nt)))  # shape carrier
        rho.values[:] = rho_vals
        target = make_curve(CurveSpec("circle", (0.0, 0.0, 0.4)), 8)
        got = trace_on(rho, target).values

        dt = region.grid.dt
        for i, x in enumerate(target.nodes):
            for k in range(Nt):
                lag = k - 1
                if lag < 0:
                    assert got[i, k] == 0.0
                    continue
                a, b = _lag_bounds(lag, dt)

                def integrand(theta):
                    y = np.array([np.cos(theta), np.sin(theta)])
                    r2 = float(np.sum((x - y) ** 2))
                    prof = 1.0 + 0.3 * np.cos(theta) - 0.2 * np.sin(2 * theta)
                    return prof * float(gamma_time_integral(r2, a, b))

                want, _ = quad(integrand, 0.0, 2 * np.pi, limit=200, epsrel=1e-11)
                assert got[i, k] == pytest.approx(want, rel=1e-6)

    def test_oncurve_constant_density_vs_adaptive_quadrature(self):
        # self blocks applied to a constant density, against a quadrature
        # that integrates straight through the logarithmic singularity
        M, Nt, T = 32, 4, 0.2
        region = disk_region(M, Nt, T)
        const = np.ones((M, Nt))
        rho = solve_neumann(region, np.zeros((M, Nt)))
        rho.values[:] = const
        got = trace_on(rho, region.curves[0]).values
        dt = region.grid.dt
        x = region.curves[0].nodes[0]
        for k in range(Nt):
            want = 0.0
            for lag in range(k + 1):
                a, b = _lag_bounds(lag, dt)

                def integrand(theta):
                    y = np.array([np.cos(theta), np.sin(theta)])
                    r2 = float(np.sum((x - y) ** 2))
                    if r2 <= 0:
                        return 0.0
                    return float(gamma_time_integral(r2, a, b))

                part, _ = quad(
                    integrand, 0.0, 2 * np.pi, limit=400, epsrel=1e-10, points=[0.0]
                )
                want += part
            assert got[0, k] == pytest.approx(want, rel=1e-3)

    def test_normal_derivative_vs_central_difference(self, disk_region):
        rng = np.random.default_rng(5)
        flux = rng.standard_normal((16, 8)) * np.sin(
            np.pi * disk_region.grid.times / disk_region.grid.T
        )
        rho = solve_neumann(disk_region, flux)
        target = make_curve(CurveSpec("circle", (0.0, 0.0, 0.5)), 6)
        got = normal_derivative_on(rho, target).values
        h = 1e-4
        times = disk_region.grid.times
        up = potential_at(rho, target.nodes + h * target.normals, times)
        dn = potential_at(rho, target.nodes - h * target.normals, times)
        fd = (up - dn) / (2 * h)
        assert np.linalg.norm(got - fd) <= 1e-4 * np.linalg.norm(fd)

    def test_normal_derivative_requires_disjoint_target(self, disk_region):
        rho = solve_neumann(disk_region, np.zeros((16, 8)))
        with pytest.raises(ValueError):
            normal_derivative_on(rho, disk_region.curves[0])

    def test_stacked_density_rejected_by_name(self, disk_region):
        rho = solve_neumann(disk_region, np.zeros((16, 8, 3)))
        target = make_curve(CurveSpec("circle", (0.0, 0.0, 0.5)), 6)
        with pytest.raises(ValueError, match="one right-hand side"):
            trace_on(rho, disk_region.curves[0])
        with pytest.raises(ValueError, match="one right-hand side"):
            normal_derivative_on(rho, target)


class TestGreenProbe:
    def test_zero_after_probe_time(self):
        omega = make_curve(UNIT_CIRCLE, 16)
        grid = TimeGrid(0.5, 8)
        p = green_probe_trace((0.2, 0.1), 0.25, omega, grid)
        live = grid.times < 0.25
        assert np.all(p.values[:, ~live] == 0.0)
        assert np.any(p.values[:, live] != 0.0)

    def test_center_probe_spatially_constant(self):
        omega = make_curve(UNIT_CIRCLE, 16)
        grid = TimeGrid(0.5, 8)
        p = green_probe_trace((0.0, 0.0), 0.5, omega, grid)
        spread = np.abs(p.values - p.values[:1, :]).max()
        assert spread <= 1e-10 * np.abs(p.values).max()

    def test_free_space_part_is_heat_kernel(self):
        omega = make_curve(UNIT_CIRCLE, 16)
        grid = TimeGrid(0.5, 8)
        y = np.array([0.3, -0.1])
        s = 0.4
        p = green_probe_trace(y, s, omega, grid, include_correction=False)
        for k, t in enumerate(grid.times):
            want = gamma(omega.nodes - y, s - t)
            assert np.allclose(p.values[:, k], want, rtol=0, atol=1e-15)

    def test_full_probe_vs_series_oracle(self):
        omega = make_curve(UNIT_CIRCLE, 32)
        grid = TimeGrid(0.5, 16)
        y = np.array([0.3, -0.2])
        s = 0.5
        p = green_probe_trace(y, s, omega, grid)
        live = grid.times < s
        want = oracles.disk_green(omega.nodes, s - grid.times[live], y)
        err = np.linalg.norm(p.values[:, live] - want)
        assert err <= 1e-2 * np.linalg.norm(want)

    def test_reciprocity_through_series_oracle(self):
        omega = make_curve(UNIT_CIRCLE, 32)
        grid = TimeGrid(0.5, 16)
        region = assemble_blocks(omega, grid)
        y = np.array([0.35, 0.1])
        z = np.array([-0.2, -0.3])
        t_eval = np.array([0.3])

        def green_at(target, pole):
            flux = np.zeros((32, 16, 1))
            from heatcavity.kernels import dnu_gamma

            for k, t in enumerate(grid.times):
                flux[:, k, 0] = -dnu_gamma(omega.nodes - pole, omega.normals, t)
            rho = solve_neumann(region, flux)
            free = gamma(target - pole, t_eval)
            corr = potential_at(rho, target[None, :], t_eval)[0, :, 0]
            return float(free[0] + corr[0])

        g_yz = green_at(y, z)
        g_zy = green_at(z, y)
        oracle = float(oracles.disk_green(y[None, :], t_eval, z)[0, 0])
        # the two solves share no right-hand side, so their agreement is a
        # genuine discrete reciprocity statement, not an identity
        assert g_yz == pytest.approx(g_zy, rel=1e-3)
        assert g_yz == pytest.approx(oracle, rel=1e-2)
        assert g_zy == pytest.approx(oracle, rel=1e-2)

    def test_batched_probe_matches_single(self):
        omega = make_curve(UNIT_CIRCLE, 16)
        grid = TimeGrid(0.5, 8)
        pts = np.array([[0.2, 0.1], [-0.3, 0.25]])
        batch = green_probe_traces(pts, 0.3, omega, grid)
        # batched and one-at-a-time solves may differ in summation order,
        # but only at roundoff level
        for j, pt in enumerate(pts):
            single = green_probe_trace(pt, 0.3, omega, grid)
            assert np.allclose(batch[:, :, j], single.values, rtol=0, atol=1e-13)

    def test_repeated_batch_is_bitwise_identical(self):
        omega = make_curve(UNIT_CIRCLE, 16)
        grid = TimeGrid(0.5, 8)
        pts = np.array([[0.2, 0.1], [-0.3, 0.25]])
        a = green_probe_traces(pts, 0.3, omega, grid)
        b = green_probe_traces(pts, 0.3, omega, grid)
        assert np.array_equal(a, b)

    def test_window_cache_matches_fresh_region(self):
        # s = T/3 lies off the dt grid, so every trace goes through the
        # per-window kernels that the region caches
        omega = make_curve(UNIT_CIRCLE, 16)
        grid = TimeGrid(0.5, 8)
        s = grid.T / 3
        pts = np.array([[0.2, 0.1], [-0.3, 0.25], [0.0, -0.4]])
        warm = assemble_blocks(omega, grid)
        green_probe_traces(pts[::-1], s, omega, grid, region=warm)
        assert warm._windows
        for pt in pts:
            cached = green_probe_trace(pt, s, omega, grid, region=warm)
            fresh = green_probe_trace(pt, s, omega, grid, region=assemble_blocks(omega, grid))
            assert np.array_equal(cached.values, fresh.values)

    def test_window_cache_hit_builds_no_kernel(self, monkeypatch):
        omega = make_curve(UNIT_CIRCLE, 16)
        grid = TimeGrid(0.5, 8)
        s = grid.T / 3
        pts = np.array([[0.2, 0.1], [-0.3, 0.25]])
        region = assemble_blocks(omega, grid)
        first = green_probe_traces(pts, s, omega, grid, region=region)
        entries = len(region._windows)
        calls = []

        def counting(*args):
            calls.append(args)
            return gamma_time_integral(*args)

        monkeypatch.setattr(forward, "gamma_time_integral", counting)
        again = green_probe_traces(pts, s, omega, grid, region=region)
        assert len(region._windows) == entries > 0
        assert calls == []
        assert np.array_equal(first, again)

    def test_invalid_probe_inputs(self):
        omega = make_curve(UNIT_CIRCLE, 16)
        grid = TimeGrid(0.5, 8)
        with pytest.raises(ValueError):
            green_probe_trace((1.5, 0.0), 0.3, omega, grid)
        with pytest.raises(ValueError):
            green_probe_trace((0.1, 0.0), 0.6, omega, grid)
        with pytest.raises(ValueError):
            green_probe_trace((0.1, 0.0), 0.0, omega, grid)


class TestConventions:
    def test_pinned_discretization_constants(self):
        # the disk benchmark convergence fixes both signs; a change here
        # must ring the convergence checks
        assert SELF_TERM_SCALE == 1.0
        assert JUMP_COEFF == 0.5

    def test_field_norm_positive(self, disk_region):
        curve = disk_region.curves[0]
        f = BoundaryField(curve, disk_region.grid, np.ones((16, 8)))
        # ||1||_W^2 = perimeter * T
        assert field_norm(f) == pytest.approx(np.sqrt(2 * np.pi * 0.5), rel=1e-12)
