"""The reference solutions themselves, checked against closed-form series.

The radial finite-difference trace and the disk Green series act as
oracles elsewhere, so this file pins them to independently derived
classical solutions before anything else relies on them.
"""

import numpy as np
import pytest
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dgttrf, dgttrs
from scipy.special import jn_zeros

from heatcavity import recon
from heatcavity.kernels import gamma
from heatcavity.oracles import disk_green, radial_disk_trace
from heatcavity.verify import _polar_cells


def disk_uniform_flux_series(t, n_roots=200):
    """Exact boundary temperature for unit flux on the unit disk.

    u(1,t) = 2t + 1/4 - 2 sum_n exp(-beta_n^2 t)/beta_n^2 over the positive
    roots beta_n of J_1 (separation of variables; the 2t term carries the
    injected heat, r^2/2 - 1/4 is the mean-zero steady profile).
    """
    beta = jn_zeros(1, n_roots)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    tail = np.sum(np.exp(-np.square(beta)[None, :] * t[:, None]) / beta[None, :] ** 2, axis=1)
    return 2.0 * t + 0.25 - 2.0 * tail


class TestRadialOracle:
    def test_matches_separation_of_variables(self):
        times = np.array([0.05, 0.2, 0.5, 1.0])
        got = radial_disk_trace(times)
        want = disk_uniform_flux_series(times)
        assert np.all(np.abs(got - want) <= 1e-3 * np.abs(want))

    def test_self_convergence_under_step_refinement(self):
        times = np.array([0.1, 0.4])
        coarse = radial_disk_trace(times, dr=2e-3, dt=2e-4)
        fine = radial_disk_trace(times, dr=1e-3, dt=1e-4)
        assert np.all(np.abs(coarse - fine) <= 1e-3 * np.abs(fine))

    def test_flux_scaling_is_linear(self):
        times = np.array([0.3])
        one = radial_disk_trace(times, flux=1.0)
        three = radial_disk_trace(times, flux=3.0)
        assert three[0] == pytest.approx(3.0 * one[0], rel=1e-12)


def radial_trace_banded(times, dr, dt):
    """The radial Crank-Nicolson trace with one banded solve per step."""
    n = int(round(1.0 / dr))
    r = np.linspace(0.0, 1.0, n + 1)
    lower, diag, upper = np.zeros(n + 1), np.zeros(n + 1), np.zeros(n + 1)
    inv_dr2 = 1.0 / dr**2
    diag[0], upper[0] = -4.0 * inv_dr2, 4.0 * inv_dr2
    lower[1:n] = inv_dr2 - 1.0 / (2 * dr * r[1:n])
    diag[1:n] = -2.0 * inv_dr2
    upper[1:n] = inv_dr2 + 1.0 / (2 * dr * r[1:n])
    lower[n], diag[n] = 2.0 * inv_dr2, -2.0 * inv_dr2
    bflux = 2.0 * inv_dr2 * dr + 1.0
    ab = np.zeros((3, n + 1))
    ab[0, 1:] = -0.5 * dt * upper[:-1]
    ab[1, :] = 1.0 - 0.5 * dt * diag
    ab[2, :-1] = -0.5 * dt * lower[1:]
    nsteps = int(np.ceil(np.max(times) / dt))
    u, trace = np.zeros(n + 1), np.zeros(nsteps + 1)
    for step in range(nsteps):
        au = np.concatenate(([diag[0] * u[0] + upper[0] * u[1]],
                             lower[1:n] * u[0:n - 1] + diag[1:n] * u[1:n] + upper[1:n] * u[2:],
                             [lower[n] * u[n - 1] + diag[n] * u[n]]))
        rhs = u + 0.5 * dt * au
        rhs += dt * bflux * (np.arange(n + 1) == n)
        u = solve_banded((1, 1), ab, rhs)
        trace[step + 1] = u[n]
    return np.interp(times, np.arange(nsteps + 1) * dt, trace)


class TestRadialOracleRuns:
    TIMES = (np.array([0.01, 0.03, 0.05]), np.array([0.005, 0.0125, 0.1]), np.array([0.02]))

    def test_factored_steps_match_banded_solves(self):
        times = np.concatenate(self.TIMES)
        got = radial_disk_trace(times, dr=5e-3, dt=2e-4)
        assert np.array_equal(got, radial_trace_banded(times, dr=5e-3, dt=2e-4))

    def test_one_run_on_the_union_matches_separate_runs(self):
        # a shorter run's trajectory is a prefix of the longer one's
        union = radial_disk_trace(np.concatenate(self.TIMES), dr=5e-3)
        parts = np.split(union, np.cumsum([t.size for t in self.TIMES])[:-1])
        for times, part in zip(self.TIMES, parts):
            assert np.array_equal(part, radial_disk_trace(times, dr=5e-3))


def radial_trace_scipy_steps(times, dr, dt):
    """The radial Crank-Nicolson trace as scipy's dgttrf once and dgttrs per
    step, each right-hand side a new array."""
    n = int(round(1.0 / dr))
    r = np.linspace(0.0, 1.0, n + 1)
    nsteps = int(np.ceil(times.max() / dt))
    u = np.zeros(n + 1)
    lower, diag, upper = np.zeros(n + 1), np.zeros(n + 1), np.zeros(n + 1)
    inv_dr2 = 1.0 / dr**2
    diag[0], upper[0] = -4.0 * inv_dr2, 4.0 * inv_dr2
    lower[1:n] = inv_dr2 - 1.0 / (2 * dr * r[1:n])
    diag[1:n] = -2.0 * inv_dr2
    upper[1:n] = inv_dr2 + 1.0 / (2 * dr * r[1:n])
    lower[n], diag[n] = 2.0 * inv_dr2, -2.0 * inv_dr2
    bflux = 2.0 * inv_dr2 * dr + 1.0
    factors = dgttrf(-0.5 * dt * lower[1:], 1.0 - 0.5 * dt * diag, -0.5 * dt * upper[:-1])
    assert factors[-1] == 0
    trace = np.zeros(nsteps + 1)
    half = 0.5 * dt
    for step in range(nsteps):
        rhs = u + half * (
            np.concatenate(([diag[0] * u[0] + upper[0] * u[1]],
                            lower[1:n] * u[0:n - 1] + diag[1:n] * u[1:n] + upper[1:n] * u[2:],
                            [lower[n] * u[n - 1] + diag[n] * u[n]]))
        )
        rhs += dt * bflux * (np.arange(n + 1) == n)
        u, _ = dgttrs(*factors[:-1], rhs)
        trace[step + 1] = u[n]
    return np.interp(times, np.arange(nsteps + 1) * dt, trace)


class TestRadialOracleRoutes:
    """numpy's own dgttrf/dgttrs, bound once, against scipy's wrappers."""

    TIMES = np.array([0.005, 0.01, 0.0125, 0.03, 0.05, 0.1])

    @pytest.mark.parametrize("route", ["numpy", "scipy"])
    def test_steps_keep_the_scipy_bits(self, route, monkeypatch):
        if route == "scipy":
            monkeypatch.setattr(recon, "_lapack", lambda: None)
        elif recon._lapack() is None:
            pytest.skip("numpy's LAPACK exports no 64-bit dgttrf/dgttrs")
        got = radial_disk_trace(self.TIMES, dr=5e-3, dt=2e-4)
        assert np.array_equal(got, radial_trace_scipy_steps(self.TIMES, dr=5e-3, dt=2e-4))

    def test_lapack_failure_raises_linalg_error(self, failing_lapack):
        failing_lapack("gttrf")
        with pytest.raises(np.linalg.LinAlgError, match="singular Crank-Nicolson matrix"):
            radial_disk_trace(self.TIMES, dr=5e-3)
        failing_lapack("gttrs")
        with pytest.raises(np.linalg.LinAlgError, match="dgttrs failed with info=3"):
            radial_disk_trace(self.TIMES, dr=5e-3)


class TestRadialOracleArguments:
    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"dr": 0.3}, "dr=0.3"),
            ({"dr": 0.0}, "dr"),
            ({"dr": -1e-3}, "dr"),
            ({"dr": float("nan")}, "dr"),
            ({"dr": 2.0}, "dr=2.0"),
            ({"dt": 0.0}, "dt"),
            ({"dt": -1e-4}, "dt"),
        ],
    )
    def test_bad_steps_are_refused(self, kwargs, name):
        # dr=0.3 once built four nodes 1/3 apart with 0.3 in the coefficients
        with pytest.raises(ValueError, match=name):
            radial_disk_trace([0.01], **kwargs)

    def test_empty_times_are_refused(self):
        with pytest.raises(ValueError, match="times is empty"):
            radial_disk_trace([])

    def test_dividing_steps_are_accepted(self):
        for dr in (1e-3, 2e-3, 5e-3, 0.25):
            assert np.isfinite(radial_disk_trace([0.01], dr=dr, dt=1e-3)).all()
        # 0.3 / 0.1 rounds to 2.9999999999999996: within the 1e-9 slack
        assert np.isfinite(radial_disk_trace([0.01], radius=0.3, dr=0.1, dt=1e-3)).all()


class TestDiskGreenOracle:
    def test_conserves_unit_mass(self):
        pts, areas = _polar_cells(0.0, 1.0, 64)
        vals = disk_green(pts, 0.1, np.array([0.25, -0.1]), n_modes=30)
        assert float(np.dot(areas, vals)) == pytest.approx(1.0, rel=1e-3)

    def test_pole_symmetry(self):
        y = np.array([0.3, 0.2])
        z = np.array([-0.4, 0.1])
        g_yz = float(disk_green(y[None, :], 0.2, z)[0])
        g_zy = float(disk_green(z[None, :], 0.2, y)[0])
        assert g_yz == pytest.approx(g_zy, rel=1e-12)

    def test_long_time_limit_is_uniform(self):
        # slowest nonconstant mode still carries exp(-alpha_1^2 t) ~ 4e-8
        pts = np.array([[0.0, 0.0], [0.5, 0.2], [-0.7, 0.1]])
        vals = disk_green(pts, 5.0, np.array([0.2, 0.3]))
        assert np.allclose(vals, 1.0 / np.pi, rtol=1e-6)

    def test_short_time_free_space_limit(self):
        # far from the boundary the image contribution is exp(-d^2/4t) small
        y = np.array([0.1, 0.0])
        x = np.array([[0.25, 0.1]])
        t = 0.01
        got = float(disk_green(x, t, y)[0])
        free = float(gamma(x - y, t)[0])
        assert got == pytest.approx(free, rel=1e-3)
