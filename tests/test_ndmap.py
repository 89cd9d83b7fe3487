"""Operator assembly: measurement maps, time reversal, duality, symmetrization."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from heatcavity import forward, ndmap, oracles
from heatcavity.forward import BoundaryField, TimeGrid, field_inner, field_norm
from heatcavity.geometry import CurveSpec, make_curve
from heatcavity.ndmap import (
    NoiseSpec,
    ProblemSetup,
    SpaceTimeOperator,
    add_noise,
    apply,
    apply_Lprime,
    assemble_N,
    assemble_lambda,
    gram_weights,
    symmetrize,
    time_reversal,
)
from heatcavity.verify import _smooth_field
from reference import lprime_from_duality


def field_on(curve, grid, values):
    return BoundaryField(curve, grid, np.asarray(values, dtype=float))


def uniform_field(curve, grid, value=1.0):
    return field_on(curve, grid, np.full((curve.M, grid.Nt), value))


@pytest.fixture(scope="module")
def no_cavity_setup():
    omega = make_curve(CurveSpec("circle", (0.0, 0.0, 1.0)), 16)
    return ProblemSetup.build(omega, None, TimeGrid(0.5, 8))


@pytest.fixture(scope="module")
def symmetric_setup():
    """Concentric pair whose node sets share the full C_16 rotation group,
    so rotation-invariance statements hold to roundoff, not merely to
    discretization error."""
    omega = make_curve(CurveSpec("circle", (0.0, 0.0, 1.0)), 16)
    cavity = make_curve(CurveSpec("circle", (0.0, 0.0, 0.35)), 16)
    return ProblemSetup.build(omega, cavity, TimeGrid(0.5, 8))


class TestGram:
    def test_gram_weights_structure(self, small_setup):
        g = gram_weights(small_setup.omega, small_setup.grid)
        want = np.repeat(small_setup.omega.weights, 8) * small_setup.grid.dt
        assert np.array_equal(g, want)
        assert np.all(g > 0)

    def test_gram_matches_field_inner(self, small_setup):
        rng = np.random.default_rng(0)
        u = field_on(small_setup.omega, small_setup.grid, rng.standard_normal((16, 8)))
        v = field_on(small_setup.omega, small_setup.grid, rng.standard_normal((16, 8)))
        g = gram_weights(small_setup.omega, small_setup.grid)
        direct = float(np.sum(g * u.flatten() * v.flatten()))
        assert direct == pytest.approx(field_inner(u, v), rel=1e-14)

    @pytest.mark.parametrize("weight", [0.0, -1.0, np.nan, np.inf])
    def test_operator_refuses_weights_not_positive_and_finite(self, weight):
        good = np.ones(3)
        bad = np.array([1.0, weight, 1.0])
        for domain, codomain in ((bad, good), (good, bad)):
            with pytest.raises(ValueError, match="strictly positive and finite"):
                SpaceTimeOperator(np.eye(3), domain, codomain)


class TestLambda:
    def test_zero_vector_maps_to_zero(self, small_ops):
        out = small_ops["lambda_D"].matrix @ np.zeros(16 * 8)
        assert np.all(out == 0.0)

    def test_no_cavity_assemblies_bitwise_identical(self, no_cavity_setup):
        a = assemble_lambda(no_cavity_setup, False)
        b = assemble_lambda(no_cavity_setup, False)
        assert np.array_equal(a.matrix, b.matrix)

    def test_with_cavity_requires_cavity(self, no_cavity_setup):
        with pytest.raises(ValueError):
            assemble_lambda(no_cavity_setup, True)

    def test_uniform_flux_matches_radial_oracle(self, no_cavity_setup):
        op = assemble_lambda(no_cavity_setup, False)
        f = uniform_field(no_cavity_setup.omega, no_cavity_setup.grid)
        trace = (op.matrix @ f.flatten()).reshape(16, 8).mean(axis=0)
        want = oracles.radial_disk_trace(no_cavity_setup.grid.times)
        assert np.linalg.norm(trace - want) <= 2e-2 * np.linalg.norm(want)

    @pytest.mark.parametrize("name", ["lambda_D", "lambda_0"])
    def test_block_lower_triangular_in_time(self, small_ops, name):
        mat = small_ops[name].matrix
        nt = 8
        blocks = mat.reshape(16, nt, 16, nt)
        scale = np.abs(mat).max()
        for k_out in range(nt):
            for k_in in range(k_out + 1, nt):
                assert np.abs(blocks[:, k_out, :, k_in]).max() <= 1e-12 * scale

    def test_cavity_effect_sign_after_transient(self, bench_setup):
        # a nonnegative flux heats the cavity domain at least as much as
        # the intact one, up to a short startup transient
        diff = (
            assemble_lambda(bench_setup, True).matrix
            - assemble_lambda(bench_setup, False).matrix
        )
        f = uniform_field(bench_setup.omega, bench_setup.grid)
        out = (diff @ f.flatten()).reshape(32, 32)
        assert out[:, 2:].min() >= -1e-10

    @pytest.mark.parametrize(
        "name, source",
        [("L", "omega"), ("Lhat", "cavity"), ("FL", "omega"), ("lambda_D", "omega"), ("lambda_0", "omega")],
        ids=["L", "Lhat", "FL", "lambda_D", "lambda_0"],
    )
    def test_operator_route_matches_field_route(self, small_setup, small_ops, name, source):
        rng = np.random.default_rng(3)
        op = small_ops[name]
        phi = _smooth_field(getattr(small_setup, source), small_setup.grid, rng)
        via_op = op.matrix @ phi.flatten()
        via_field = apply(small_setup, name, phi).flatten()
        # the map's own Neumann solve driven by phi, apart from the responses
        density, target, normal = fresh_density(small_setup, name, phi.values)
        trace = forward.normal_derivative_on if normal else forward.trace_on
        via_solve = (-1.0 if normal else 1.0) * trace(density, target).flatten()
        scale = np.abs(via_field).max()
        assert np.abs(via_op - via_field).max() <= 1e-12 * scale
        assert np.abs(via_solve - via_field).max() <= 1e-12 * scale


class TestTimeReversal:
    def test_involution_on_fields(self, small_setup):
        rng = np.random.default_rng(1)
        f = field_on(small_setup.omega, small_setup.grid, rng.standard_normal((16, 8)))
        assert np.array_equal(time_reversal(time_reversal(f)).values, f.values)

    def test_constant_field_unchanged(self, small_setup):
        f = uniform_field(small_setup.omega, small_setup.grid, 3.5)
        assert np.array_equal(time_reversal(f).values, f.values)

    def test_index_reversal(self, small_setup):
        vals = np.tile(np.arange(8.0), (16, 1))
        f = field_on(small_setup.omega, small_setup.grid, vals)
        assert np.array_equal(time_reversal(f).values, vals[:, ::-1])


class TestVirtualMeasurements:
    def test_zero_inputs(self, small_setup):
        zero_om = field_on(small_setup.omega, small_setup.grid, np.zeros((16, 8)))
        zero_cav = field_on(small_setup.cavity, small_setup.grid, np.zeros((12, 8)))
        assert np.all(apply(small_setup, "L", zero_om).values == 0.0)
        assert np.all(apply(small_setup, "Lhat", zero_cav).values == 0.0)
        assert np.all(apply_Lprime(small_setup, zero_cav).values == 0.0)
        assert np.all(apply(small_setup, "FL", zero_om).values == 0.0)

    def test_causality_of_L(self, small_setup):
        k0 = 3
        vals = np.zeros((16, 8))
        vals[:, k0:] = 1.0
        out = apply(small_setup, "L", field_on(small_setup.omega, small_setup.grid, vals))
        assert np.abs(out.values[:, :k0]).max() <= 1e-12 * np.abs(out.values).max()

    def test_anti_causality_of_Lprime(self, small_setup):
        # sources before k0 cannot influence the backward solution at or
        # after k0
        k0 = 5
        vals = np.zeros((12, 8))
        vals[:, :k0] = 1.0
        theta = field_on(small_setup.cavity, small_setup.grid, vals)
        out = apply_Lprime(small_setup, theta)
        assert np.abs(out.values[:, k0:]).max() <= 1e-12 * np.abs(out.values).max()

    def test_uniform_flux_gives_constant_cavity_trace(self, symmetric_setup):
        st = symmetric_setup
        out = apply(st, "L", uniform_field(st.omega, st.grid))
        spread = np.abs(out.values - out.values[:1, :]).max()
        assert spread <= 1e-10 * np.abs(out.values).max()

    def test_uniform_FL_constant_and_single_signed(self, symmetric_setup):
        st = symmetric_setup
        out = apply(st, "FL", uniform_field(st.omega, st.grid))
        spread = np.abs(out.values - out.values[:1, :]).max()
        assert spread <= 1e-10 * np.abs(out.values).max()
        # heating from outside: the transmission flux settles to one sign
        assert np.all(out.values[:, 2:] < 0.0)

    def test_FL_negative_against_L(self, small_setup):
        rng = np.random.default_rng(7)
        for _ in range(5):
            phi = _smooth_field(small_setup.omega, small_setup.grid, rng)
            lphi = apply(small_setup, "L", phi)
            quad = field_inner(apply(small_setup, "FL", phi), lphi)
            assert quad <= 1e-10 * field_norm(lphi) ** 2

    def test_apply_refuses_a_field_off_the_source_curve(self, symmetric_setup):
        # M_omega == M_cavity here, so a field on the wrong curve has the
        # shape of one on the right curve
        st = symmetric_setup
        on_omega, on_cavity = uniform_field(st.omega, st.grid), uniform_field(st.cavity, st.grid)
        for name, (source, _) in ndmap.FLUX_MAPS.items():
            wrong = on_omega if source == "cavity" else on_cavity
            with pytest.raises(ValueError, match=f"{name} applies to fields on {source} over"):
                apply(st, name, wrong)
        with pytest.raises(ValueError, match="Lhat applies to fields on cavity"):
            apply_Lprime(st, on_omega)

    def test_apply_refuses_a_field_on_another_grid(self, symmetric_setup):
        st = symmetric_setup
        phi = uniform_field(st.omega, TimeGrid(1.0, st.grid.Nt))
        with pytest.raises(ValueError, match=r"L applies to fields on omega over TimeGrid\(T=0.5, Nt=8\)"):
            apply(st, "L", phi)

    def test_apply_without_cavity_serves_only_lambda_0(self, no_cavity_setup):
        st = no_cavity_setup
        phi = uniform_field(st.omega, st.grid)
        for name in ("lambda_D", "L", "Lhat", "FL"):
            with pytest.raises(ValueError, match="requires a cavity"):
                apply(st, name, phi)
        want = (assemble_lambda(st, False).matrix @ phi.flatten()).reshape(16, 8)
        got = apply(st, "lambda_0", phi)
        assert got.curve is st.omega
        assert np.abs(got.values - want).max() <= 1e-12 * np.abs(want).max()


class TestDuality:
    def test_residual_small_at_base_resolution(self, bench_setup):
        rng = np.random.default_rng(1000)
        residuals = []
        for _ in range(10):
            phi = _smooth_field(bench_setup.omega, bench_setup.grid, rng)
            theta = _smooth_field(bench_setup.cavity, bench_setup.grid, rng)
            a = field_inner(theta, apply(bench_setup, "L", phi))
            b = field_inner(phi, apply_Lprime(bench_setup, theta))
            residuals.append(abs(a - b) / max(abs(a), abs(b)))
        assert float(np.median(residuals)) <= 5e-2

    def test_lprime_from_duality_is_weighted_transpose(self, small_ops, small_setup):
        L_op = small_ops["L"]
        Lp = lprime_from_duality(L_op)
        rng = np.random.default_rng(8)
        phi = _smooth_field(small_setup.omega, small_setup.grid, rng)
        theta = _smooth_field(small_setup.cavity, small_setup.grid, rng)
        l_phi = field_on(theta.curve, theta.grid, (L_op.matrix @ phi.flatten()).reshape(12, 8))
        lp_theta = field_on(phi.curve, phi.grid, (Lp.matrix @ theta.flatten()).reshape(16, 8))
        a = field_inner(theta, l_phi)
        b = field_inner(phi, lp_theta)
        assert a == pytest.approx(b, rel=1e-12)


class TestFactorization:
    def test_difference_of_maps_equals_composite(self, small_ops):
        lhs = small_ops["lambda_D"].matrix - small_ops["lambda_0"].matrix
        rhs = small_ops["Lhat"].matrix @ small_ops["FL"].matrix
        assert np.linalg.norm(lhs - rhs) <= 5e-2 * np.linalg.norm(lhs)

    def test_modified_map_equals_reversed_composite(self, small_ops, small_setup):
        nt, m = 8, 16
        rng = np.random.default_rng(4)
        phi = _smooth_field(small_setup.omega, small_setup.grid, rng)
        via_matrix = (small_ops["N"].matrix @ phi.flatten()).reshape(m, nt)
        inner = apply(small_setup, "FL", phi)
        via_fields = -apply_Lprime(small_setup, inner).values
        assert np.allclose(via_matrix, via_fields, rtol=0, atol=1e-12 * np.abs(via_fields).max())

    def test_compose_N_from_responses_is_assemble_N(self, small_ops, small_setup):
        f, h = ndmap.n_responses(small_setup)
        composed = ndmap.compose_N(small_setup.omega, small_setup.grid, f, h)
        assert np.array_equal(composed.matrix, small_ops["N"].matrix)
        assert np.array_equal(composed.gram_domain, small_ops["N"].gram_domain)
        assert np.array_equal(composed.gram_codomain, small_ops["N"].gram_codomain)

    def test_no_cavity_N_is_zero(self, no_cavity_setup):
        op = assemble_N(no_cavity_setup)
        assert op.matrix.shape == (16 * 8, 16 * 8)
        assert not np.any(op.matrix)
        assert not np.signbit(op.matrix).any()  # written as "0", not "-0"

    def test_dual_consistency_of_N(self, small_ops, small_setup):
        N = small_ops["N"]
        g = N.gram_domain
        nprime = (N.matrix * g[:, None]).T / g[:, None]
        rng = np.random.default_rng(5)
        phi = rng.standard_normal(16 * 8)
        psi = rng.standard_normal(16 * 8)
        a = float(np.sum(g * (N.matrix @ phi) * psi))
        b = float(np.sum(g * phi * (nprime @ psi)))
        assert a == pytest.approx(b, rel=1e-12)


def toeplitz_expand_by_cells(resp: np.ndarray) -> np.ndarray:
    """Reference expansion: one strided copy per time cell of the source."""
    m_tgt, nt, m_src = resp.shape
    full = np.zeros((m_tgt, nt, m_src, nt))
    for k in range(nt):
        full[:, k:, :, k] = resp[:, : nt - k, :]
    return full.reshape(m_tgt * nt, m_src * nt)


def reversal(m: int, nt: int) -> np.ndarray:
    """Permutation matrix of the time reversal on an (m, nt) basis."""
    return np.kron(np.eye(m), np.eye(nt)[::-1])


class TestImpulseAssembly:
    @pytest.mark.parametrize(
        "shape",
        [(3, 5, 4), (4, 7, 2), (16, 32, 16), (3, 1, 5), (0, 4, 3), (3, 4, 0), (2, 0, 3)],
        ids=["3x5x4", "4x7x2", "16x32x16", "nt1", "no_targets", "no_sources", "nt0"],
    )
    def test_gather_equals_cell_loop(self, shape):
        resp = np.random.default_rng(11).standard_normal(shape)
        got = ndmap._toeplitz_expand(resp)
        assert np.array_equal(got, toeplitz_expand_by_cells(resp))
        assert got.flags.c_contiguous

    def test_gather_keeps_signed_zeros(self):
        resp = np.array([[[-0.0], [1.0], [-0.0]]])
        got = ndmap._toeplitz_expand(resp)
        assert np.array_equal(np.signbit(got), np.signbit(toeplitz_expand_by_cells(resp)))

    @pytest.mark.parametrize("name", ["small", "kite"])
    def test_compose_N_matches_dense_reversed_product(self, name, small_setup, kite_setup):
        st = {"small": small_setup, "kite": kite_setup}[name]
        m, m_c, nt = st.omega.M, st.cavity.M, st.grid.Nt
        f, h = ndmap.n_responses(st)
        assert f.shape == (m_c, nt, m) and h.shape == (m, nt, m_c)
        fl, lhat = toeplitz_expand_by_cells(f), toeplitz_expand_by_cells(h)
        dense = reversal(m, nt) @ lhat @ reversal(m_c, nt) @ fl
        got = ndmap.compose_N(st.omega, st.grid, f, h).matrix
        assert np.abs(got - dense).max() <= 1e-14 * np.abs(dense).max()

    def test_assemble_N_peak_memory_is_one_matrix(self, bench_setup):
        # 32/24/32: the dense FL and Lhat route peaks near 3.5 n^2 doubles
        # the responses are read first: assemble_N composes, it solves nothing
        n = bench_setup.omega.M * bench_setup.grid.Nt
        resp_bytes = sum(r.nbytes for r in ndmap.n_responses(bench_setup))
        tracemalloc.start()
        try:
            assemble_N(bench_setup)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * n * n * 8 + resp_bytes


def impulse_flux(m: int, nt: int) -> np.ndarray:
    """One right-hand side per source node: flux 1 there in time cell 0."""
    flux = np.zeros((m, nt, m))
    flux[np.arange(m), 0, np.arange(m)] = 1.0
    return flux


#: Per flux map: its region, source component, target curve and whether it
#: reads minus the normal derivative (FL) instead of the trace.
FRESH_SOLVE = {
    "lambda_0": ("omega_system", 0, "omega", False),
    "FL": ("omega_system", 0, "cavity", True),
    "lambda_D": ("cavity_system", 0, "omega", False),
    "L": ("cavity_system", 0, "cavity", False),
    "Lhat": ("cavity_system", 1, "omega", False),
}


def fresh_density(st: ProblemSetup, name: str, values: np.ndarray):
    """Map name's own Neumann solve for flux values (M_src, Nt[, R]) on its
    source component: the density, the target curve and the normal flag."""
    region_name, source, target, normal = FRESH_SOLVE[name]
    region = getattr(st, region_name)
    flux = np.zeros((region.M_total,) + values.shape[1:])
    flux[region.component_slice(source)] = values
    return forward.solve_neumann(region, flux), getattr(st, target), normal


class TestResponseTable:
    """ProblemSetup.responses: every flux map's impulse responses from one
    solve set per flux source."""

    @pytest.mark.parametrize("name", ["small", "kite", "no_cavity"])
    def test_each_entry_is_the_fresh_solve(self, name, small_setup, kite_setup, no_cavity_setup):
        st = {"small": small_setup, "kite": kite_setup, "no_cavity": no_cavity_setup}[name]
        maps = ["lambda_0"] if st.cavity is None else list(FRESH_SOLVE)
        assert set(st.responses) == set(maps)
        for key in maps:
            m = (st.cavity if key == "Lhat" else st.omega).M
            density, target, normal = fresh_density(st, key, impulse_flux(m, st.grid.Nt))
            # trace_on and normal_derivative_on take one right-hand side; the
            # trace they wrap takes the stack (per column it agrees to 1e-13,
            # see test_forward's test_stacked_trace_values_match_per_column)
            fresh = forward._trace_values(density, target, normal)
            fresh = -fresh if normal else fresh
            assert st.responses[key].tobytes() == fresh.tobytes(), key

    def test_three_solve_sets_serve_every_map(self, monkeypatch):
        omega = make_curve(CurveSpec("circle", (0.0, 0.0, 1.0)), 8)
        cavity = make_curve(CurveSpec("circle", (0.0, 0.0, 0.35)), 6)
        st = ProblemSetup.build(omega, cavity, TimeGrid(0.5, 4))
        calls = []
        real = ndmap.solve_neumann
        monkeypatch.setattr(ndmap, "solve_neumann", lambda *a: calls.append(1) or real(*a))
        for assemble in (ndmap.assemble_L, ndmap.assemble_Lhat, ndmap.assemble_FL, assemble_N):
            assemble(st)
        assemble_lambda(st, True)
        assemble_lambda(st, False)
        assert len(calls) == 3

    def test_no_cavity_N_runs_no_solve(self, monkeypatch):
        omega = make_curve(CurveSpec("circle", (0.0, 0.0, 1.0)), 8)
        st = ProblemSetup.build(omega, None, TimeGrid(0.5, 4))
        monkeypatch.setattr(ndmap, "solve_neumann", None)
        assert not assemble_N(st).matrix.any()


def weighted_symmetrization(N: SpaceTimeOperator) -> np.ndarray:
    """Ntilde = (N + G^{-1} N^T G)/2 with G the diagonal Gram of N's domain."""
    g = N.gram_domain
    return 0.5 * (N.matrix + N.matrix.T * g[None, :] / g[:, None])


def random_operator(n: int, seed: int) -> SpaceTimeOperator:
    rng = np.random.default_rng(seed)
    g = rng.uniform(0.1, 2.0, n)
    return SpaceTimeOperator(rng.standard_normal((n, n)), g, g)


def separate_defect_walk(N_op: SpaceTimeOperator) -> float:
    """||b - b.T||_F / ||b||_F with b = G^{1/2} N G^{-1/2}, summed over the
    tile pairs in its own walk, apart from the one that fills S."""
    mat, sqrt_g = N_op.matrix, np.sqrt(N_op.gram_domain)
    skew2 = norm2 = 0.0
    for rows, cols in ndmap._tile_pairs(len(sqrt_g)):
        b_rc = mat[rows, cols] * (sqrt_g[rows, None] / sqrt_g[None, cols])
        b_cr = mat[cols, rows] * (sqrt_g[cols, None] / sqrt_g[None, rows])
        weight = 1.0 if rows == cols else 2.0
        d = b_rc - b_cr.T
        skew2 += weight * np.vdot(d, d)
        norm2 += 0.5 * weight * (np.vdot(b_rc, b_rc) + np.vdot(b_cr, b_cr))
    return float(np.sqrt(skew2 / norm2)) if norm2 > 0 else 0.0


class TestSymmetrize:
    def test_already_symmetric_unchanged(self, small_setup):
        n = 16 * 8
        g = gram_weights(small_setup.omega, small_setup.grid)
        rng = np.random.default_rng(6)
        sym = rng.standard_normal((n, n))
        sym = 0.5 * (sym + sym.T)
        # build a W-selfadjoint operator: A = G^{-1/2} sym G^{1/2}
        mat = sym * (1.0 / np.sqrt(g))[:, None] * np.sqrt(g)[None, :]
        op = SpaceTimeOperator(mat, g, g)
        ntilde = weighted_symmetrization(op)
        assert np.linalg.norm(ntilde - mat) <= 1e-14 * np.linalg.norm(mat)
        S, defect = symmetrize(op)
        assert np.linalg.norm(S - sym) <= 1e-13 * np.linalg.norm(sym)
        assert defect <= 1e-15

    def test_S_exactly_symmetric(self, small_ops):
        S, _ = symmetrize(small_ops["N"])
        assert np.linalg.norm(S - S.T) <= 1e-12 * np.linalg.norm(S)

    def test_S_bits_are_the_scaled_symmetric_part(self, small_ops):
        N = small_ops["N"]
        sqrt_g = np.sqrt(N.gram_domain)
        b = N.matrix * (sqrt_g[:, None] / sqrt_g[None, :])
        assert np.array_equal(symmetrize(N)[0], 0.5 * (b + b.T))

    @pytest.mark.parametrize("n", [1, 7, ndmap.TILE, ndmap.TILE + 37, 2 * ndmap.TILE + 3])
    def test_tiled_bits_match_dense_formula(self, n):
        # n off the tile size leaves ragged edge tiles; zeros of both signs
        # must come out with the signs of 0.5 * (b + b.T)
        rng = np.random.default_rng(n)
        mat = rng.standard_normal((n, n))
        mat[rng.random((n, n)) < 0.2] = 0.0
        mat[rng.random((n, n)) < 0.2] = -0.0
        g = rng.uniform(0.1, 2.0, n)
        sqrt_g = np.sqrt(g)
        b = mat * (sqrt_g[:, None] / sqrt_g[None, :])
        want = 0.5 * (b + b.T)
        op = SpaceTimeOperator(mat, g, g)
        S, defect = symmetrize(op)
        assert S.tobytes() == want.tobytes()
        dense = np.linalg.norm(b - b.T) / np.linalg.norm(b) if n > 1 else 0.0
        assert defect == pytest.approx(dense, rel=1e-12, abs=0.0)

    def test_defect_is_relative_gram_asymmetry_of_N(self, small_ops):
        N = small_ops["N"]
        ntilde = weighted_symmetrization(N)
        skew = N.matrix - ntilde  # (N - N')/2
        g = N.gram_domain
        # ||A||_G = ||G^{1/2} A G^{-1/2}||_F
        gnorm = lambda a: np.linalg.norm(a * (np.sqrt(g)[:, None] / np.sqrt(g)[None, :]))
        _, defect = symmetrize(N)
        assert defect == pytest.approx(2.0 * gnorm(skew) / gnorm(N.matrix), rel=1e-10)
        assert 0.0 < defect < 2.0

    def test_eigenvalues_match_generalized_oracle(self, small_ops):
        from heatcavity.recon import eigendecompose

        N = small_ops["N"]
        g = N.gram_domain
        eig = eigendecompose(symmetrize(N)[0], g, 1e-8)
        # oracle: the W-eigenproblem (G Ntilde) x = lambda G x, symmetric
        # because Ntilde is W-selfadjoint
        a = np.diag(g) @ weighted_symmetrization(N)
        a = 0.5 * (a + a.T)
        lam = scipy.linalg.eigh(a, np.diag(g), eigvals_only=True)[::-1]
        assert np.allclose(eig.lambdas, lam, rtol=0, atol=1e-10 * abs(lam[0]))

    def test_non_square_rejected(self, small_ops):
        with pytest.raises(ValueError):
            symmetrize(small_ops["L"])

    @pytest.mark.parametrize("case", ["small", "kite", "noisy", "zero", "ragged"])
    def test_defect_bits_match_a_separate_walk(self, case, small_ops, kite_setup):
        ops = {
            "small": lambda: small_ops["N"],
            "kite": lambda: assemble_N(kite_setup),
            "noisy": lambda: add_noise(small_ops["N"], NoiseSpec(0.05, 4)),
            "zero": lambda: assemble_N(
                ProblemSetup.build(kite_setup.omega, None, kite_setup.grid)
            ),
            # three tile rows with a ragged edge: the pair sums cross tiles
            "ragged": lambda: random_operator(2 * ndmap.TILE + 37, 5),
        }
        op = ops[case]()
        _, defect = symmetrize(op)
        assert defect == separate_defect_walk(op)
        assert (defect == 0.0) == (case == "zero")


class TestNoise:
    def test_zero_level_identical(self, small_ops):
        out = add_noise(small_ops["N"], NoiseSpec(0.0, 9))
        assert np.array_equal(out.matrix, small_ops["N"].matrix)

    def test_same_seed_identical(self, small_ops):
        a = add_noise(small_ops["N"], NoiseSpec(1e-2, 10))
        b = add_noise(small_ops["N"], NoiseSpec(1e-2, 10))
        assert np.array_equal(a.matrix, b.matrix)

    def test_perturbation_norm_exact(self, small_ops):
        delta = 3e-3
        out = add_noise(small_ops["N"], NoiseSpec(delta, 11))
        e = out.matrix - small_ops["N"].matrix
        ratio = np.linalg.norm(e) / np.linalg.norm(small_ops["N"].matrix)
        assert ratio == pytest.approx(delta, rel=1e-12)

    @pytest.mark.parametrize("seed", [10, 11])
    def test_bits_of_the_out_of_place_sum(self, small_ops, seed):
        op = small_ops["N"]
        noise = np.random.default_rng(seed).standard_normal(op.matrix.shape)
        scale = 3e-3 * np.linalg.norm(op.matrix) / np.linalg.norm(noise)
        want = op.matrix + scale * noise
        assert add_noise(op, NoiseSpec(3e-3, seed)).matrix.tobytes() == want.tobytes()

    def test_peak_memory_is_the_draw(self, small_ops):
        # the out-of-place sum held the draw, its scaled copy and the sum
        n = 600
        gram = np.ones(n)
        op = replace(small_ops["N"], matrix=np.ones((n, n)), gram_domain=gram, gram_codomain=gram)
        tracemalloc.start()
        try:
            out = add_noise(op, NoiseSpec(1e-3, 4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not np.shares_memory(out.matrix, op.matrix)
        assert peak <= 1.25 * n * n * 8

    def test_invalid_level_rejected(self):
        with pytest.raises(ValueError):
            NoiseSpec(1.0, 0)
        with pytest.raises(ValueError):
            NoiseSpec(-0.1, 0)
