"""Closed-form kernel values against direct formulas and adaptive quadrature."""

import numpy as np
import pytest
from scipy.integrate import quad

from heatcavity import kernels
from heatcavity.kernels import (
    dnu_gamma,
    dnu_gamma_time_integral,
    e1_entire_part,
    gamma,
    gamma_time_integral,
    log_quadrature_weights,
    window_integrals,
)

FOUR_PI = 4.0 * np.pi


class TestGamma:
    def test_causal_zero_is_bitwise(self):
        dx = np.array([0.3, -0.4])
        for dt in (0.0, -1.0, -1e-300):
            assert gamma(dx, dt) == 0.0
        assert gamma(np.zeros(2), 0.0) == 0.0

    def test_coincident_points_unit_lag(self):
        val = float(gamma(np.zeros(2), 1.0))
        assert val == pytest.approx(1.0 / FOUR_PI, rel=1e-15)
        assert val == pytest.approx(7.9577472e-2, rel=1e-7)

    def test_distance_two_unit_lag(self):
        val = float(gamma(np.array([2.0, 0.0]), 1.0))
        assert val == pytest.approx(np.exp(-1.0) / FOUR_PI, rel=1e-15)
        assert val == pytest.approx(2.9276e-2, rel=1e-4)

    def test_symmetry_in_endpoints(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            x, y = rng.normal(size=2), rng.normal(size=2)
            dt = rng.uniform(0.01, 2.0)
            assert gamma(x - y, dt) == gamma(y - x, dt)

    def test_finite_and_nonnegative(self):
        rng = np.random.default_rng(12)
        dx = rng.normal(size=(100, 2)) * 10
        dt = rng.uniform(-1, 1, size=100)
        vals = gamma(dx, dt)
        assert np.all(np.isfinite(vals))
        assert np.all(vals >= 0)


class TestDnuGamma:
    def test_orthogonal_direction_zero(self):
        assert dnu_gamma(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.7) == 0.0

    def test_causal_zero(self):
        assert dnu_gamma(np.array([1.0, 0.0]), np.array([1.0, 0.0]), 0.0) == 0.0
        assert dnu_gamma(np.array([1.0, 0.0]), np.array([1.0, 0.0]), -2.0) == 0.0

    def test_aligned_unit_lag(self):
        val = float(dnu_gamma(np.array([1.0, 0.0]), np.array([1.0, 0.0]), 1.0))
        assert val == pytest.approx(-np.exp(-0.25) / (8.0 * np.pi), rel=1e-15)
        assert val == pytest.approx(-3.0988e-2, rel=1e-4)


class TestGammaTimeIntegral:
    def test_empty_interval(self):
        assert gamma_time_integral(1.0, 0.3, 0.3) == 0.0

    def test_reversed_interval_rejected(self):
        with pytest.raises(ValueError):
            gamma_time_integral(1.0, 0.5, 0.1)

    def test_against_adaptive_quadrature(self):
        val = float(gamma_time_integral(1.0, 0.1, 0.5))
        oracle, _ = quad(
            lambda u: np.exp(-1.0 / (4 * u)) / (FOUR_PI * u), 0.1, 0.5, epsrel=1e-13
        )
        assert val == pytest.approx(oracle, rel=1e-10)

    def test_huge_distance_underflows_to_zero(self):
        assert gamma_time_integral(1e8, 0.0, 1.0) == 0.0

    def test_zero_distance_log_form(self):
        val = float(gamma_time_integral(0.0, 0.2, 0.8))
        assert val == pytest.approx(np.log(4.0) / FOUR_PI, rel=1e-14)

    def test_zero_distance_zero_start_diverges(self):
        with pytest.raises(ValueError):
            gamma_time_integral(0.0, 0.0, 1.0)

    def test_log_spaced_sweep_vs_quadrature(self):
        r2s = np.logspace(-6, 2, 9)
        windows = [(0.0, 0.05), (0.05, 0.1), (0.3, 1.7), (1e-3, 2e-3)]
        for r2 in r2s:
            for a, b in windows:
                val = float(gamma_time_integral(r2, a, b))
                oracle, _ = quad(
                    lambda u, r2=r2: np.exp(-r2 / (4 * u)) / (FOUR_PI * u),
                    max(a, 1e-300),
                    b,
                    epsabs=1e-300,
                    epsrel=1e-12,
                    limit=400,
                )
                if oracle == 0.0:
                    assert val == 0.0
                else:
                    assert val == pytest.approx(oracle, rel=1e-8)


class TestDnuGammaTimeIntegral:
    def test_orthogonal_zero(self):
        assert dnu_gamma_time_integral(1.0, 0.0, 0.1, 0.5) == 0.0

    def test_empty_interval(self):
        assert dnu_gamma_time_integral(1.0, 1.0, 0.4, 0.4) == 0.0

    def test_unit_case_closed_form(self):
        val = float(dnu_gamma_time_integral(1.0, 1.0, 0.0, 1.0))
        assert val == pytest.approx(-np.exp(-0.25) / (2.0 * np.pi), rel=1e-14)
        assert val == pytest.approx(-1.2394e-1, rel=1e-4)

    def test_unit_case_vs_quadrature(self):
        val = float(dnu_gamma_time_integral(1.0, 1.0, 0.0, 1.0))
        oracle, _ = quad(
            lambda u: -(1.0 / (2 * u)) * np.exp(-1.0 / (4 * u)) / (FOUR_PI * u),
            1e-12,
            1.0,
            epsrel=1e-12,
        )
        assert val == pytest.approx(oracle, rel=1e-8)

    def test_coincident_points_rejected(self):
        with pytest.raises(ValueError, match="self-term rule"):
            dnu_gamma_time_integral(0.0, 0.0, 0.0, 1.0)

    def test_log_spaced_sweep_vs_quadrature(self):
        r2s = np.logspace(-6, 2, 9)
        for r2 in r2s:
            val = float(dnu_gamma_time_integral(r2, 0.7, 0.01, 0.6))
            oracle, _ = quad(
                lambda u, r2=r2: -(0.7 / (2 * u)) * np.exp(-r2 / (4 * u)) / (FOUR_PI * u),
                0.01,
                0.6,
                epsabs=1e-300,
                epsrel=1e-12,
                limit=400,
            )
            if oracle == 0.0:
                assert val == 0.0
            else:
                assert val == pytest.approx(oracle, rel=1e-8)


class TestWindowIntegrals:
    """Grouped windows from shared endpoints, against the single-window forms."""

    R2 = np.random.default_rng(31).uniform(1e-4, 3.0, (5, 7))
    DOT = np.random.default_rng(32).standard_normal((2, 5, 7))
    # lag windows telescope; collocation-style windows repeat endpoints
    # across groups, some starting at a = 0
    GROUPS = [
        ([0.0, 0.0125], [0.0125, 0.0375]),
        ([0.0375], [0.0625]),
        ([0.0, 0.0125, 0.3], [0.0375, 0.0625, 0.7]),
        ([0.0625], [0.7]),
    ]

    def endpoints(self):
        return {u for a, b in self.GROUPS for u in a + b if u > 0}

    def test_gamma_windows_bitwise(self):
        for (a, b), got in zip(self.GROUPS, window_integrals(self.R2, self.GROUPS)):
            assert got.shape == (5, len(a), 7)
            for j, (lo, hi) in enumerate(zip(a, b)):
                assert np.array_equal(got[:, j, :], gamma_time_integral(self.R2, lo, hi))

    def test_dnu_windows_bitwise_with_leading_axes(self):
        groups = window_integrals(self.R2, self.GROUPS, self.DOT)
        for (a, b), got in zip(self.GROUPS, groups):
            assert got.shape == (2, 5, len(a), 7)
            for j, (lo, hi) in enumerate(zip(a, b)):
                want = dnu_gamma_time_integral(self.R2, self.DOT, lo, hi)
                assert np.array_equal(got[:, :, j, :], want)

    @pytest.mark.parametrize("dot", [None, DOT], ids=["exp1", "exp"])
    def test_one_evaluation_per_distinct_endpoint(self, monkeypatch, dot):
        seen = []
        name, real = ("exp1", kernels.exp1) if dot is None else ("exp", np.exp)

        def spy(z, *args, **kwargs):
            seen.append(np.asarray(z).shape)
            return real(z, *args, **kwargs)

        monkeypatch.setattr(kernels if dot is None else np, name, spy)
        list(window_integrals(self.R2, self.GROUPS, dot))
        assert seen == [self.R2.shape] * len(self.endpoints())

    def test_endpoints_dropped_after_last_use(self):
        # 400 telescoping windows: keeping every endpoint would hold 401
        # (100, 100) tables, 32 MB; dropping each after its last use keeps two
        import tracemalloc

        r2 = np.random.default_rng(33).uniform(0.01, 1.0, (100, 100))
        edges = (np.arange(401) + 0.5) * 1e-3
        groups = [([lo], [hi]) for lo, hi in zip(edges[:-1], edges[1:])]
        tracemalloc.start()
        try:
            for _ in window_integrals(r2, groups, np.ones_like(r2)):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * r2.nbytes

    def test_invalid_windows_and_coincident_points_rejected(self):
        for groups in ([([0.2], [0.1])], [([-0.1], [0.1])], [([0.1], [0.1])], [([0.0, 0.1], [0.2])]):
            with pytest.raises(ValueError, match="0 <= a < b"):
                list(window_integrals(self.R2, groups))
        with pytest.raises(ValueError, match="r2 > 0"):
            list(window_integrals(np.zeros((2, 2)), [([0.1], [0.2])]))


class TestLogQuadratureTools:
    def test_e1_entire_part_at_zero(self):
        assert e1_entire_part(0.0) == 0.0

    def test_e1_entire_part_small_argument_series(self):
        # E1(z) + gamma + log z = z - z^2/4 + z^3/18 - ...
        z = 1e-4
        val = float(e1_entire_part(z))
        assert val == pytest.approx(z - z**2 / 4 + z**3 / 18, rel=1e-10)

    def test_log_weights_integrate_constant(self):
        # integral of log(4 sin^2(t/2)) over a period is 0
        w = log_quadrature_weights(32)
        assert abs(w.sum()) <= 1e-12

    def test_log_weights_integrate_cos(self):
        # Fourier coefficient: integral log(4 sin^2(t/2)) cos(m t) dt = -2 pi/m
        M = 64
        t = 2 * np.pi * np.arange(M) / M
        w = log_quadrature_weights(M)
        for m in (1, 2, 5):
            approx = float(np.dot(np.roll(w, 0), np.cos(m * (t[0] - t))))
            assert approx == pytest.approx(-2 * np.pi / m, rel=1e-10)
