"""Space-time boundary solver: causality, oracles, and probe traces."""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import lu_factor, lu_solve
from scipy.special import exp1

from heatcavity import forward, oracles
from heatcavity.forward import (
    JUMP_COEFF,
    SELF_TERM_SCALE,
    BoundaryField,
    SolverError,
    TimeGrid,
    _lag_bounds,
    assemble_blocks,
    field_norm,
    gradient_at,
    green_probe_trace,
    green_probe_traces,
    normal_derivative_on,
    potential_at,
    solve_neumann,
    trace_on,
)
from heatcavity.geometry import CurveSpec, make_curve
from heatcavity.kernels import (
    dnu_gamma,
    dnu_gamma_time_integral,
    gamma,
    gamma_time_integral,
    window_integrals,
)
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
        # every call shares the region's one stepping inverse
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

    def test_step_residuals_match_lu_solve(self):
        # the march applies inv(a0) where it used to LU-solve; per step and
        # column, |a0 x - rhs|_inf may exceed the LU residual by 8 eps |rhs|_inf
        region = disk_region(24, 8, 0.5)
        a0 = np.diag(region.sigma * JUMP_COEFF) + region.adjoint[0]
        lu = lu_factor(a0)
        flux = np.random.default_rng(12).standard_normal((24, 8, 16))
        rho = solve_neumann(region, flux).values
        eps = np.finfo(float).eps
        for k in range(8):
            rhs = flux[:, k] - sum(region.adjoint[lag] @ rho[:, k - lag] for lag in range(1, k + 1))
            res = np.abs(a0 @ rho[:, k] - rhs).max(axis=0)
            res_lu = np.abs(a0 @ lu_solve(lu, rhs) - rhs).max(axis=0)
            assert np.all(res <= res_lu + 8 * eps * np.abs(rhs).max(axis=0))

    @pytest.mark.parametrize("defect", ["zero", "rank_one"])
    def test_singular_stepping_matrix_raises(self, defect):
        # adjoint[0] cancels the jump term: a0 is 0, or a rank-one matrix
        # whose inverse LAPACK still returns (rcond 2.8e-20)
        region = disk_region(16, 8, 0.5)
        region.adjoint[0] = -np.diag(region.sigma * JUMP_COEFF)
        if defect == "rank_one":
            u = np.random.default_rng(13).standard_normal(16)
            region.adjoint[0] += np.outer(u, u)
        with pytest.raises(SolverError, match="singular stepping matrix"):
            solve_neumann(region, uniform_flux(region))

    def test_flux_shape_mismatch_rejected(self, disk_region):
        with pytest.raises(ValueError):
            solve_neumann(disk_region, np.zeros((5, 8)))

    def test_two_component_region_takes_stacked_flux(self, small_setup):
        region = small_setup.cavity_system
        flux = np.concatenate([np.ones((16, 8)), np.zeros((12, 8))])
        rho = solve_neumann(region, flux)
        assert rho.values.shape == (28, 8)
        with pytest.raises(ValueError):
            solve_neumann(region, flux[:16])


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

    @pytest.mark.parametrize(
        "target, normal",
        [("cavity", False), ("off_curve", False), ("off_curve", True)],
        ids=["source_component", "off_curve_trace", "off_curve_normal"],
    )
    def test_stacked_trace_values_match_per_column(self, target, normal):
        omega = make_curve(UNIT_CIRCLE, 16)
        cavity = make_curve(CurveSpec("circle", (0.05, 0.0, 0.35)), 12)
        region = assemble_blocks((omega, cavity), TimeGrid(0.5, 8))
        rng = np.random.default_rng(13)
        rho = solve_neumann(region, rng.standard_normal((28, 8, 3)))
        ring = make_curve(CurveSpec("circle", (0.0, 0.0, 0.6)), 10)
        curve = cavity if target == "cavity" else ring
        got = forward._trace_values(rho, curve, normal)
        assert got.shape == (curve.M, 8, 3)
        column_map = normal_derivative_on if normal else trace_on
        for r in range(3):
            want = column_map(forward.LayerDensity(region, rho.values[:, :, r]), curve).values
            assert np.abs(got[:, :, r] - want).max() <= 1e-13 * np.abs(want).max()

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
        p = green_probe_trace(y, s, omega, grid)
        # the correction: the field whose flux cancels -dnu Gamma(. - y, tau_k)
        flux = -dnu_gamma(omega.nodes[:, None, :] - y, omega.normals[:, None, :], grid.times)
        rho = solve_neumann(assemble_blocks(omega, grid), flux)
        correction = forward.trace_at_times(rho, 0, s)
        live = grid.times < s
        free = p.values[:, live] - correction
        eps = np.finfo(float).eps
        for k, t in enumerate(grid.times[live]):
            want = gamma(omega.nodes - y, s - t)
            assert np.allclose(free[:, k], want, rtol=0, atol=4 * eps * np.abs(p.values).max())

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

    def test_several_times_equal_single_time_calls(self):
        omega = make_curve(UNIT_CIRCLE, 16)
        grid = TimeGrid(0.5, 8)
        region = assemble_blocks(omega, grid)
        pts = np.array([[0.2, 0.1], [-0.3, 0.25], [0.0, -0.4]])
        s1, s2 = grid.T / 3, grid.T / 2
        both = green_probe_traces(pts, [s1, s2], omega, grid, region=region)
        assert both.shape == (16, 8, 6)
        assert np.array_equal(both[:, :, :3], green_probe_traces(pts, s1, omega, grid, region=region))
        assert np.array_equal(both[:, :, 3:], green_probe_traces(pts, s2, omega, grid, region=region))

    def test_off_grid_stack_built_once_per_region(self, monkeypatch):
        # s = T/3 lies off the dt grid, so its stack is built and stored
        omega = make_curve(UNIT_CIRCLE, 16)
        grid = TimeGrid(0.5, 8)
        s = grid.T / 3
        pts = np.array([[0.2, 0.1], [-0.3, 0.25], [0.0, -0.4]])
        warm = assemble_blocks(omega, grid)
        calls = []
        real = forward._single_blocks

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(forward, "_single_blocks", counting)
        first = green_probe_traces(pts[::-1], s, omega, grid, region=warm)
        assert len(calls) == 1 and list(warm._probe_blocks) == [s]
        again = green_probe_traces(pts[::-1], s, omega, grid, region=warm)
        assert len(calls) == 1
        assert np.array_equal(first, again)
        for pt in pts:
            cached = green_probe_trace(pt, s, omega, grid, region=warm)
            fresh = green_probe_trace(pt, s, omega, grid, region=assemble_blocks(omega, grid))
            assert np.array_equal(cached.values, fresh.values)

    def test_concurrent_off_grid_probes_match_serial(self):
        # threads racing to build the same per-s stack store identical bits
        omega = make_curve(UNIT_CIRCLE, 16)
        grid = TimeGrid(0.5, 8)
        svals = [grid.T / 3, 2 * grid.T / 3]
        rng = np.random.default_rng(2)
        batches = [rng.uniform(-0.5, 0.5, size=(5, 2)) for _ in range(16)]
        ref = assemble_blocks(omega, grid)
        serial = [green_probe_traces(p, svals, omega, grid, region=ref) for p in batches]
        shared = assemble_blocks(omega, grid)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                runs = pool.map(
                    lambda p: green_probe_traces(p, svals, omega, grid, region=shared),
                    batches,
                    timeout=60,
                )
                threaded = list(runs)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(shared._probe_blocks) == svals
        assert all(np.array_equal(a, b) for a, b in zip(serial, threaded))

    def test_region_on_an_equal_but_distinct_curve_rejected(self):
        omega = make_curve(UNIT_CIRCLE, 16)
        grid = TimeGrid(0.5, 8)
        region = assemble_blocks(make_curve(UNIT_CIRCLE, 16), grid)
        with pytest.raises(ValueError, match="single-curve conductor system"):
            green_probe_traces(np.array([[0.1, 0.0]]), 0.3, omega, grid, region=region)

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

    @pytest.mark.parametrize("T", [0.0, -0.5, np.nan, np.inf])
    def test_time_grid_refuses_a_horizon_that_is_not_finite_and_positive(self, T):
        with pytest.raises(ValueError, match="finite T > 0"):
            TimeGrid(T, 8)


class TestSelfHalfBlock:
    """Row 0 of the unit circle's self half block against adaptive
    quadrature of E1(r^2/4b)/(4 pi) along the circle, r = 2 sin(t/2)."""

    @pytest.mark.parametrize(
        "b",
        [
            0.1,
            pytest.param(
                1e-4,
                marks=pytest.mark.xfail(
                    strict=True,
                    reason="measured: with M = 16 the kernel peak, O(sqrt(b)) wide, is "
                    "far below the node spacing and row 0 sums to -0.0893 against "
                    "0.00564; the self rule loses accuracy once sqrt(b) is small next "
                    "to the spacing (2.7 % off at b = 1e-2, sign flipped at 1e-3)",
                ),
            ),
        ],
    )
    def test_row_sum_matches_quadrature(self, b):
        curve = make_curve(UNIT_CIRCLE, 16)
        row = forward._self_half_block(curve, b)[0].sum()
        ref, _ = quad(
            lambda t: exp1((2.0 * np.sin(t / 2.0)) ** 2 / (4.0 * b)) / (4.0 * np.pi),
            0.0,
            np.pi,
            points=[0.0],
            limit=200,
        )
        assert row == pytest.approx(2.0 * ref, rel=1e-8 if b == 0.1 else 0.05)


def lag_field_reference(density, points, times, gradient=False):
    """potential_at, or gradient_at, on the lag windows: each time t as
    collocation instant k = ceil(t/dt) - 1 (clipped to the grid) shifted by
    theta = (t - tau_k)/dt, one gamma_time_integral (or, per axis,
    dnu_gamma_time_integral) call per lag, summed by _convolve."""
    region = density.region
    grid = region.grid
    dx = points[:, None, :] - region.nodes[None, :, :]
    r2 = dx[..., 0] ** 2 + dx[..., 1] ** 2
    axes = 2 if gradient else 1
    out = np.zeros((axes * points.shape[0], times.size) + density.values.shape[2:])
    for j, t in enumerate(times):
        k = min(max(int(np.ceil(t / grid.dt)) - 1, 0), grid.Nt - 1)
        theta = (t - grid.times[k]) / grid.dt
        stack = np.zeros((grid.Nt, axes * points.shape[0], region.M_total))
        for lag in range(grid.Nt):
            a, b = _lag_bounds(lag, grid.dt, theta)
            if not b > a:
                continue
            if gradient:
                kers = [dnu_gamma_time_integral(r2, dx[..., d], a, b) for d in range(2)]
            else:
                kers = [gamma_time_integral(r2, a, b)]
            stack[lag] = np.concatenate(kers) * region.weights[None, :]
        out[:, j] = forward._convolve(stack, density.values)[:, k]
    if gradient:
        return np.moveaxis(out.reshape((2, -1) + out.shape[1:]), 0, 1)
    return out


def cell_windows(grid, times):
    """Per (evaluation time, density cell) retardation windows
    (t - e_c+1, t - e_c], clipped at 0; shapes (K, Nt)."""
    a = np.maximum(0.0, times[:, None] - grid.edges[None, 1:])
    b = np.maximum(0.0, times[:, None] - grid.edges[None, :-1])
    return a, b


def cell_field_reference(density, points, times, gradient=False):
    """potential_at, or gradient_at, as one gamma_time_integral (or, per
    axis, dnu_gamma_time_integral) call per density cell on cell_windows."""
    region = density.region
    dx = points[:, None, :] - region.nodes[None, :, :]
    r2 = dx[..., 0] ** 2 + dx[..., 1] ** 2
    w = region.weights
    a, b = cell_windows(region.grid, times)
    rho = density.values if density.values.ndim == 3 else density.values[:, :, None]
    out = np.zeros((points.shape[0], 2, times.shape[0], rho.shape[2]))
    for cell in range(region.grid.Nt):
        live = b[:, cell] > a[:, cell]
        if not np.any(live):
            continue
        lo, hi = a[live, cell][None, :, None], b[live, cell][None, :, None]
        for axis in range(2 if gradient else 1):
            if gradient:
                ker = dnu_gamma_time_integral(r2[:, None, :], dx[:, None, :, axis], lo, hi)
            else:
                ker = gamma_time_integral(r2[:, None, :], lo, hi)
            out[:, axis][:, live, :] += np.tensordot(ker * w, rho[:, cell, :], axes=(2, 0))
    out = out if gradient else out[:, 0]
    return out if density.values.ndim == 3 else out[..., 0]


def bits_equal(x, y) -> bool:
    return x.shape == y.shape and np.array_equal(x.view(np.uint64), y.view(np.uint64))


def trace_reference(density, component, s):
    """trace_at_times as one kernel per (evaluation time, density cell):
    gamma_time_integral across nodes, _self_half_block differences on the
    component's own columns."""
    region = density.region
    curve = region.curves[component]
    rows = region.component_slice(component)
    times = s - region.grid.times[region.grid.times < s]
    dx = region.nodes[rows][:, None, :] - region.nodes[None, :, :]
    r2 = dx[..., 0] ** 2 + dx[..., 1] ** 2
    r2[np.arange(curve.M), np.arange(rows.start, rows.stop)] = 1.0
    a, b = cell_windows(region.grid, times)
    out = np.zeros((curve.M, times.size) + density.values.shape[2:])
    for cell in range(region.grid.Nt):
        for k in np.nonzero(b[:, cell] > a[:, cell])[0]:
            av, bv = a[k, cell], b[k, cell]
            ker = gamma_time_integral(r2, av, bv) * region.weights[None, :]
            ker[:, rows] = forward._self_half_block(curve, bv)
            if av > 0.0:
                ker[:, rows] -= forward._self_half_block(curve, av)
            out[:, k] += ker @ density.values[:, cell]
    return out


def per_lag_single_blocks(region):
    """Single-layer lag blocks, lag by lag: window integrals across nodes,
    self blocks as differences of consecutive half blocks at (l + 1/2) dt."""
    dt, nt = region.grid.dt, region.grid.Nt
    dx = region.nodes[:, None, :] - region.nodes[None, :, :]
    r2 = dx[..., 0] ** 2 + dx[..., 1] ** 2
    np.fill_diagonal(r2, 1.0)
    windows = [(max(0.0, (lag - 1 + 0.5) * dt), (lag + 0.5) * dt) for lag in range(nt)]
    halves = [[forward._self_half_block(c, (lag + 0.5) * dt) for lag in range(nt)] for c in region.curves]
    out = np.empty_like(region.single)
    for lag, v in enumerate(window_integrals(r2, windows)):
        v = v * region.weights[None, :]
        for ci in range(len(region.curves)):
            sl = region.component_slice(ci)
            v[sl, sl] = halves[ci][lag] - halves[ci][lag - 1] if lag else halves[ci][0]
        out[lag] = v
    return out


class TestOneProbeTracePath:
    """Probe traces are lag convolutions of single-layer blocks."""

    @pytest.fixture(scope="class")
    def conductor(self):
        omega = make_curve(CurveSpec("ellipse", (0.0, 0.0, 1.1, 0.8)), 16)
        rng = np.random.default_rng(8)
        out = {}
        for T, nt in ((0.5, 8), (0.5, 5)):
            region = assemble_blocks(omega, TimeGrid(T, nt))
            out[nt] = solve_neumann(region, rng.standard_normal((16, nt, 3)))
        return out

    def test_on_grid_uses_assembled_blocks(self, conductor):
        rho = conductor[8]
        region = rho.region
        got = forward.trace_at_times(rho, 0, region.grid.T / 2)
        assert np.array_equal(got, forward._convolve(region.single[:4], rho.values[:, :4])[:, ::-1])
        full = forward._convolve(region.single, rho.values)[:, ::-1]
        assert np.array_equal(forward.trace_at_times(rho, 0, region.grid.T), full)
        assert not region._probe_blocks

    @pytest.mark.parametrize(
        "where", ["third", "ulp_below_instant", "at_instant", "ulp_above_instant", "T"]
    )
    def test_matches_per_window_reference(self, conductor, where):
        # dt = 1/16 is dyadic, so both forms see the same window floats
        rho = conductor[8]
        tau = rho.region.grid.times[3]
        s = {
            "third": rho.region.grid.T / 3,
            "ulp_below_instant": np.nextafter(tau, 0.0),
            "at_instant": tau,
            "ulp_above_instant": np.nextafter(tau, 1.0),
            "T": rho.region.grid.T,
        }[where]
        got = forward.trace_at_times(rho, 0, float(s))
        want = trace_reference(rho, 0, s)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_lag_zero_rounding_to_empty_gives_zero_block(self, conductor):
        # on (T, Nt) = (0.5, 5), one ulp above the last collocation instant,
        # s/dt rounds to exactly Nt - 1/2: lag 0's window is empty.  The
        # times s - tau_k then are those of s = tau_4 plus a newest one at 0.
        rho = conductor[5]
        grid = rho.region.grid
        s = float(np.nextafter(grid.times[-1], 1.0))
        assert s / grid.dt - grid.Nt == -0.5
        stack = forward._single_blocks(rho.region.curves, grid, -0.5)
        assert np.all(stack[0] == 0.0) and np.all(np.isfinite(stack))
        got = forward.trace_at_times(rho, 0, s)
        assert got.shape[1] == grid.Nt and np.all(got[:, -1] == 0.0)
        want = forward.trace_at_times(rho, 0, float(grid.times[-1]))
        assert np.abs(got[:, :-1] - want).max() <= 1e-13 * np.abs(want).max()

    def test_theta_rounding_above_half_is_clipped(self, conductor):
        # at s = tau_1 on (0.5, 5), s/dt rounds just above 1.5; unclipped,
        # lag 0's window would start at a sliver of 2e-17 instead of 0
        rho = conductor[5]
        grid = rho.region.grid
        s = float(grid.times[1])
        assert s / grid.dt - 1 > 0.5
        got = forward.trace_at_times(rho, 0, s)
        below = forward.trace_at_times(rho, 0, float(np.nextafter(s, 0.0)))
        assert got.shape == below.shape == (16, 1, 3)
        assert np.abs(got - below).max() <= 1e-13 * np.abs(below).max()

    def test_probe_before_first_instant_is_zero(self, conductor):
        grid = conductor[8].region.grid
        omega = conductor[8].region.curves[0]
        for s in (0.25 * grid.dt, float(np.nextafter(grid.times[0], 0.0))):
            p = green_probe_traces(np.array([[0.1, 0.2]]), s, omega, grid, region=conductor[8].region)
            assert p.shape == (16, 8, 1) and np.all(p == 0.0)
            assert forward.trace_at_times(conductor[8], 0, s).shape == (16, 0, 3)

    def test_cavity_component_off_grid(self):
        omega = make_curve(UNIT_CIRCLE, 20)
        cavity = make_curve(CurveSpec("circle", (0.05, 0.0, 0.35)), 16)
        region = assemble_blocks((omega, cavity), TimeGrid(0.5, 8))
        rho = solve_neumann(region, np.random.default_rng(4).standard_normal((36, 8)))
        for component in (0, 1):
            got = forward.trace_at_times(rho, component, 0.5 / 3)
            want = trace_reference(rho, component, 0.5 / 3)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("two_curves", [False, True], ids=["one_curve", "two_curves"])
    def test_assembly_matches_per_lag_form(self, two_curves):
        curves = [make_curve(CurveSpec("ellipse", (0.0, 0.0, 1.1, 0.8)), 20)]
        if two_curves:
            curves.append(make_curve(CurveSpec("kite", (0.1, 0.05, 0.3)), 16))
        region = assemble_blocks(tuple(curves), TimeGrid(0.5, 10))
        assert bits_equal(region.single, per_lag_single_blocks(region))


class TestWindowKernelsMatchPerWindowForm:
    """The shared-endpoint kernel paths give the per-window values bit for bit."""

    @pytest.fixture(scope="class")
    def densities(self):
        omega = make_curve(UNIT_CIRCLE, 20)
        cavity = make_curve(CurveSpec("circle", (0.05, 0.0, 0.35)), 16)
        region = assemble_blocks((omega, cavity), TimeGrid(0.5, 12))
        rng = np.random.default_rng(21)
        one = solve_neumann(region, rng.standard_normal((36, 12)))
        stacked = solve_neumann(region, rng.standard_normal((36, 12, 3)))
        return one, stacked

    TIMES = {
        "collocation": TimeGrid(0.5, 12).times,
        "off_grid": np.array([0.013, 0.2217, 0.37, 0.4999]),
        "single": np.array([0.5]),
        "before_first_edge": np.array([0.0, 0.1]),
    }

    @pytest.mark.parametrize("times", list(TIMES), ids=list(TIMES))
    @pytest.mark.parametrize("stacked", [False, True], ids=["one_rhs", "stacked"])
    def test_potential_and_gradient(self, densities, times, stacked):
        density = densities[stacked]
        t = self.TIMES[times]
        pts, _ = _polar_cells(0.45, 0.9, 9)
        assert bits_equal(potential_at(density, pts, t), lag_field_reference(density, pts, t))
        assert bits_equal(gradient_at(density, pts, t), lag_field_reference(density, pts, t, True))

    def test_point_subsets_each_match_reference(self, densities):
        # every point set is its own reference call: results are per call
        density = densities[0]
        pts, _ = _polar_cells(0.45, 0.9, 16)
        t = self.TIMES["collocation"]
        for lo, hi in ((0, 1), (0, 97), (97, 256)):
            p = pts[lo:hi]
            assert bits_equal(gradient_at(density, p, t), lag_field_reference(density, p, t, True))
            assert bits_equal(potential_at(density, p, t[-1:]), lag_field_reference(density, p, t[-1:]))

    EDGE = TimeGrid(0.5, 12).edges[5]
    EDGE_TIMES = {
        "edge": EDGE,
        "ulp_below_edge": np.nextafter(EDGE, 0.0),
        "ulp_above_edge": np.nextafter(EDGE, 1.0),
        "zero": 0.0,
        "T": 0.5,
        "above_T": 0.6,
    }

    @pytest.mark.parametrize("where", list(EDGE_TIMES))
    @pytest.mark.parametrize("stacked", [False, True], ids=["one_rhs", "stacked"])
    def test_edge_times_match_per_cell_windows(self, densities, where, stacked):
        density = densities[stacked]
        t = np.array([self.EDGE_TIMES[where]])
        pts, _ = _polar_cells(0.45, 0.9, 9)
        for gradient, field in ((False, potential_at), (True, gradient_at)):
            got = field(density, pts, t)
            want = cell_field_reference(density, pts, t, gradient)
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
            if where == "zero":
                assert np.all(got == 0.0)

    def test_trace_on_matches_potential_at_nodes(self, densities):
        density = densities[0]
        ring = make_curve(CurveSpec("circle", (0.0, 0.0, 0.6)), 10)
        got = trace_on(density, ring).values
        want = potential_at(density, ring.nodes, density.region.grid.times)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_lag_blocks_match_per_lag_integrals(self, densities):
        region = densities[0].region
        nodes, normals, weights = region.nodes, region.normals, region.weights
        dx = nodes[:, None, :] - nodes[None, :, :]
        r2 = dx[..., 0] ** 2 + dx[..., 1] ** 2
        dot = dx[..., 0] * normals[:, None, 0] + dx[..., 1] * normals[:, None, 1]
        np.fill_diagonal(r2, 1.0)
        self_blocks = np.zeros(r2.shape, bool)
        for i in range(len(region.curves)):
            sl = region.component_slice(i)
            self_blocks[sl, sl] = True
        target = make_curve(CurveSpec("circle", (0.0, 0.0, 0.6)), 10)
        tdx = target.nodes[:, None, :] - nodes[None, :, :]
        tr2 = tdx[..., 0] ** 2 + tdx[..., 1] ** 2
        tdot = tdx[..., 0] * target.normals[:, None, 0] + tdx[..., 1] * target.normals[:, None, 1]
        off_single = forward._lag_blocks(target.nodes, nodes, weights, region.grid)
        off_adjoint = forward._lag_blocks(target.nodes, nodes, weights, region.grid, target.normals)
        for lag in range(region.grid.Nt):
            a, b = _lag_bounds(lag, region.grid.dt)
            v = gamma_time_integral(r2, a, b) * weights[None, :]
            k = dnu_gamma_time_integral(r2, dot, a, b) * weights[None, :]
            assert bits_equal(region.single[lag][~self_blocks], v[~self_blocks])
            off_diag = ~np.eye(r2.shape[0], dtype=bool)
            assert bits_equal(region.adjoint[lag][off_diag], k[off_diag])
            assert bits_equal(off_single[lag], gamma_time_integral(tr2, a, b) * weights[None, :])
            assert bits_equal(
                off_adjoint[lag], dnu_gamma_time_integral(tr2, tdot, a, b) * weights[None, :]
            )
