"""Cross-route verification suite: clean runs pass, seeded defects are caught."""

import json
import tracemalloc

import numpy as np
import pytest

from heatcavity import forward, ndmap, recon, verify
from heatcavity.forward import TimeGrid
from heatcavity.geometry import CurveSpec, make_curve
from reference import disk_green, lprime_from_duality


class TestHelpers:
    def test_polar_cells_cover_annulus(self):
        for r0, r1 in ((0.0, 1.0), (0.35, 1.0), (0.2, 0.7)):
            pts, areas = verify._polar_cells(r0, r1)
            assert areas.sum() == pytest.approx(np.pi * (r1**2 - r0**2), rel=1e-12)
            radii = np.hypot(pts[:, 0], pts[:, 1])
            assert np.all((radii > r0) & (radii < r1))

    def test_smooth_field_seeded_and_shaped(self, bench_setup):
        st = bench_setup
        f1 = verify._smooth_field(st.omega, st.grid, np.random.default_rng(7))
        f2 = verify._smooth_field(st.omega, st.grid, np.random.default_rng(7))
        assert np.array_equal(f1.values, f2.values)
        assert f1.values.shape == (st.omega.M, st.grid.Nt)
        assert not np.array_equal(
            f1.values, verify._smooth_field(st.omega, st.grid, np.random.default_rng(8)).values
        )


class TestContext:
    def test_setup_is_cached(self, verify_ctx):
        a = verify_ctx.setup(verify.BASE_RESOLUTION)
        b = verify_ctx.setup(verify.BASE_RESOLUTION)
        assert a is b


@pytest.fixture
def coarse_verify(monkeypatch):
    """A fresh context with the refinement pair scaled down to (16,12,16) and
    (32,24,32), and the operator dimension n at the finer one."""
    monkeypatch.setattr(verify, "BASE_RESOLUTION", (16, 12, 16))
    monkeypatch.setattr(verify, "DOUBLED_RESOLUTION", (32, 24, 32))
    return verify.VerifyContext(), 32 * 32


@pytest.fixture(
    params=["small", "kite", (16, 12, 16), (32, 24, 32)],
    ids=["small", "kite", "16-12-16", "32-24-32"],
)
def factorization_setup(request, small_setup, kite_setup):
    """The small concentric pair, the small kite and the concentric coarse
    refinement pair."""
    if request.param == "small":
        return small_setup
    if request.param == "kite":
        return kite_setup
    return verify.VerifyContext().setup(request.param)


class TestFactorizationRoutes:
    """The response-route residuals against the dense operators they stand for."""

    def test_data_residual_is_the_dense_one(self, factorization_setup):
        st = factorization_setup
        diff, resid = verify._data_responses(st)
        lam = ndmap.assemble_lambda(st, True).matrix - ndmap.assemble_lambda(st, False).matrix
        assert np.array_equal(ndmap._toeplitz_expand(diff), lam)
        dense = lam - ndmap.assemble_Lhat(st).matrix @ ndmap.assemble_FL(st).matrix
        err = np.linalg.norm(ndmap._toeplitz_expand(resid) - dense)
        assert err <= 1e-13 * np.linalg.norm(lam)

    def test_dual_route_sum_is_the_dense_one(self, factorization_setup):
        # measured 3e-14 on the kite and 7e-13 at (32, 24, 32): the sum is a
        # cancellation down to about 7e-4 ||N||, so rounding of order
        # 1e-16 ||N|| in either route is this large relative to it
        st = factorization_setup
        dual = lprime_from_duality(ndmap.assemble_L(st)).matrix
        dense = ndmap.assemble_N(st).matrix + dual @ ndmap.assemble_FL(st).matrix
        got = ndmap.compose_N(st.omega, st.grid, *verify._dual_route_sum(st)).matrix
        assert np.linalg.norm(got - dense) <= 1e-12 * np.linalg.norm(dense)

    @pytest.mark.parametrize("pair", ["N", "dual"])
    def test_compose_N_norm_is_the_dense_norm(self, factorization_setup, pair):
        st = factorization_setup
        f, h = ndmap.n_responses(st) if pair == "N" else verify._dual_route_sum(st)
        dense = np.linalg.norm(ndmap.compose_N(st.omega, st.grid, f, h).matrix)
        assert ndmap.compose_N_norm(f, h) == pytest.approx(dense, rel=1e-14)

    def test_toeplitz_norm_is_the_expanded_norm(self):
        resp = np.random.default_rng(4).standard_normal((3, 7, 5))
        expanded = np.linalg.norm(ndmap._toeplitz_expand(resp))
        assert ndmap._toeplitz_norm(resp) == pytest.approx(expanded, rel=1e-14)


class TestMemory:
    def test_factorization_expands_no_operator(self, coarse_verify, monkeypatch):
        ctx, _ = coarse_verify
        called = []
        for name in ("assemble_lambda", "assemble_L", "_toeplitz_expand"):
            monkeypatch.setattr(ndmap, name, lambda *a, name=name, **k: called.append(name))
        composed = []
        real = ndmap.compose_N
        monkeypatch.setattr(
            ndmap, "compose_N", lambda omega, *a: composed.append(omega.M) or real(omega, *a)
        )
        assert verify.check_factorization(ctx).passed
        assert called == []
        assert composed == [16]  # the cavity-free setup's zero N alone
        assert set(vars(ctx)) == {"_setups"}
        for res in (verify.BASE_RESOLUTION, verify.DOUBLED_RESOLUTION):
            table = ctx.setup(res).responses
            assert sorted(table) == ["FL", "L", "Lhat", "lambda_0", "lambda_D"]
            assert all(r.ndim == 3 for r in table.values())

    def test_factorization_runs_three_solve_sets_per_resolution(self, coarse_verify, monkeypatch):
        # one per flux source; the cavity-free N needs none
        ctx, _ = coarse_verify
        calls = []
        real = ndmap.solve_neumann
        monkeypatch.setattr(ndmap, "solve_neumann", lambda *a: calls.append(1) or real(*a))
        verify.check_factorization(ctx)
        assert len(calls) == 6

    def test_duality_and_F_sign_solve_only_the_energy_fields(self, coarse_verify, monkeypatch):
        # with the responses built, every apply_* convolves them: the two
        # solves are the energy identity's u0 and w (84 when each applied
        # map ran its own solve)
        ctx, _ = coarse_verify
        for res in (verify.BASE_RESOLUTION, verify.DOUBLED_RESOLUTION):
            ctx.setup(res).responses
        calls = []
        real = forward.solve_neumann

        def spy(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(ndmap, "solve_neumann", spy)
        monkeypatch.setattr(forward, "solve_neumann", spy)
        verify.check_duality(ctx)
        verify.check_F_sign(ctx)
        assert len(calls) == 2

    def test_factorization_traced_peak(self, coarse_verify):
        # the setups and one block diagonal's Nt M^2 doubles at a time: near
        # 0.65 n^2 doubles; 1.7 while N and the sum N + L'.FL were formed
        # one at a time, 4.0 on the dense route
        ctx, n = coarse_verify
        tracemalloc.start()
        try:
            verify.check_factorization(ctx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= n * n * 8

    def test_factorization_and_spectrum_traced_peak(self, coarse_verify):
        # Holding all six dense operators per resolution, as the context once
        # did, peaked near 8.9 n^2 doubles here; one at a time it was near
        # 4.0, set by the factorization check.  The spectrum check sets the
        # peak, near 3.0: S and the eigensolve's 1.5n^2 doubles (the packed
        # reflectors beside dstedc's scratch), which tracemalloc sees, plus
        # setups; it read 3.7 while the solve held dsyevd's 2n^2 workspace.
        ctx, n = coarse_verify
        tracemalloc.start()
        try:
            verify.check_factorization(ctx)
            verify.check_spectrum(ctx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * n * n * 8


def energy_identity_two_stacks(st, phi):
    """_energy_identity with u0 and w each from their own kernel stacks, as
    forward.potential_at and forward.gradient_at give them."""
    grid = st.grid
    rho0 = forward.solve_neumann(st.omega_system, phi.values)
    flux = np.zeros((st.cavity_system.M_total, grid.Nt))
    flux[st.cavity_system.component_slice(0)] = phi.values
    rhow = forward.solve_neumann(st.cavity_system, flux)
    tT = np.array([grid.T])
    total_T = total_G = 0.0
    for r0, r1, inside in ((0.0, 0.35, True), (0.35, 1.0, False)):
        pts, areas = verify._polar_cells(r0, r1)
        for lo in range(0, len(pts), 512):
            p, a = pts[lo : lo + 512], areas[lo : lo + 512]
            vT = -forward.potential_at(rho0, p, tT)[:, 0]
            gv = -forward.gradient_at(rho0, p, grid.times)
            if not inside:
                vT += forward.potential_at(rhow, p, tT)[:, 0]
                gv += forward.gradient_at(rhow, p, grid.times)
            total_T += 0.5 * float(np.sum(vT**2 * a))
            total_G += float(np.sum((gv**2).sum(axis=1) * a[:, None]) * grid.dt)
    return -total_T - total_G


class TestEnergyIdentity:
    """Outside the cavity v = w - u0 is one density on the cavity system."""

    def test_bits_match_two_stacks(self):
        # w - u0 is summed on the density, not on the fields, so last digits
        # may move: equal here, 2.2e-16 relative at the shipped (32,24,32)
        st = verify.VerifyContext().setup((16, 12, 16))
        phi = verify._smooth_field(st.omega, st.grid, np.random.default_rng(3))
        got, want = verify._energy_identity(st, phi), energy_identity_two_stacks(st, phi)
        assert abs(got - want) <= 1e-13 * abs(want)


class TestChecksPass:
    """Each check's verdict on the clean build, with its headline numbers."""

    def test_forward_convergence(self, check_reports):
        rep = check_reports(verify.check_forward_convergence)
        assert rep.passed
        errs = rep.values["rel_l2_errors"]
        assert errs[2] < errs[1] < errs[0]
        assert errs[1] <= 2e-2
        assert min(rep.values["empirical_orders"]) >= 1.0

    def test_duality(self, check_reports):
        rep = check_reports(verify.check_duality)
        assert rep.passed
        med = rep.values["median_residuals"]
        assert med[0] <= verify.REL_TOL
        assert med[1] <= 0.5 * med[0]

    def test_factorization(self, check_reports):
        rep = check_reports(verify.check_factorization)
        assert rep.passed
        assert rep.values["data_vs_Lhat_FL"][0] <= verify.REL_TOL
        assert rep.values["N_vs_dual_route"][0] <= verify.REL_TOL
        assert rep.values["no_cavity_N_max"] == 0.0

    def test_F_sign(self, check_reports):
        rep = check_reports(verify.check_F_sign)
        assert rep.passed
        assert rep.values["worst_form_over_norm2"] <= 1e-10
        assert rep.values["quadratic_form"] < 0.0
        assert rep.values["energy_rel_diff"] <= 0.10

    def test_spectrum(self, check_reports):
        rep = check_reports(verify.check_spectrum)
        assert rep.passed
        assert rep.values["lambda_1"] > 0.0
        assert rep.values["min_eig_over_lambda_1"] >= -1e-6
        assert rep.values["symmetry_rel"] <= 1e-12
        decay = rep.values["count_above_ratio"]
        assert decay["1e-8"] >= decay["1e-4"] >= decay["1e-1"] >= 1

    def test_spectrum_reads_the_benchmark_eigensystem(self, check_reports, verify_ctx):
        rep = check_reports(verify.check_spectrum)
        lam = verify_ctx.benchmark_eigensystem.lambdas
        assert rep.values["lambda_1"] == lam[0]
        assert rep.values["top_eigenvalues"] == lam[:8].tolist()
        assert rep.values["min_eig_over_lambda_1"] == lam[-1] / lam[0]

    def test_spectrum_values_do_not_depend_on_check_order(self, coarse_verify):
        # symmetry_rel is measured on the S the eigensystem is built from,
        # whichever check builds it
        ctx, _ = coarse_verify
        first = verify.check_spectrum(ctx).values
        later = verify.VerifyContext()
        verify.check_probe_dichotomy(later)
        assert verify.check_spectrum(later).values == first

    def test_spectrum_walks_S_once(self, coarse_verify, monkeypatch):
        # symmetry_rel comes from eigendecompose's own check of S - S.T
        ctx, _ = coarse_verify
        walks = []
        real = recon._skew_norm
        monkeypatch.setattr(recon, "_skew_norm", lambda a: walks.append(1) or real(a))
        rep = verify.check_spectrum(ctx)
        assert len(walks) == 1
        assert rep.values["symmetry_rel"] == ctx.benchmark_eigensystem.symmetry_rel

    def test_probe_dichotomy(self, check_reports):
        rep = check_reports(verify.check_probe_dichotomy)
        assert rep.passed
        assert min(rep.values["interior_W"]) > max(rep.values["exterior_W"])
        assert rep.values["separation"] > 1.0

    def test_probe_dichotomy_traces_once_and_scores_with_picard_indicator(
        self, coarse_verify, monkeypatch
    ):
        # one Neumann solve serves all ten points; W comes from the one W routine
        ctx, _ = coarse_verify
        eig, st = ctx.benchmark_eigensystem, ctx.setup(verify.DOUBLED_RESOLUTION)
        spied = {"green_probe_traces": forward, "solve_neumann": forward, "picard_indicator": recon}
        real = {name: getattr(module, name) for name, module in spied.items()}
        calls = {name: [] for name in spied}
        for name, module in spied.items():
            spy = lambda *a, name=name, **k: calls[name].append(a) or real[name](*a, **k)
            monkeypatch.setattr(module, name, spy)
        rep = verify.check_probe_dichotomy(ctx)
        assert len(calls["green_probe_traces"]) == len(calls["solve_neumann"]) == 1
        assert len(calls["green_probe_traces"][0][0]) == 10
        assert len(calls["picard_indicator"]) == 10
        # against each point traced alone
        for key, i, y in (("interior_W", 0, (0.0, 0.0)), ("exterior_W", -1, (0.45, 0.5))):
            probe = real["green_probe_traces"](
                y, verify.HORIZON / 2, st.omega, st.grid, region=st.omega_system
            )
            want = real["picard_indicator"](eig, probe.reshape(-1, 1))[0]
            assert rep.values[key][i] == pytest.approx(want, rel=1e-12)


class TestReporting:
    def test_record_is_json_clean(self, check_reports):
        rep = check_reports(verify.check_spectrum)
        rec = rep.to_record()
        json.dumps(rec)  # would raise on stray numpy scalars/arrays
        assert rec["name"] == "spectrum"
        assert isinstance(rec["passed"], bool)
        assert isinstance(rec["values"]["lambda_1"], float)

    def test_report_round_trip(self, check_reports):
        reports = [check_reports(c) for c in verify.ALL_CHECKS]
        payload = json.loads(verify.report_to_json(reports))
        assert payload["all_passed"] is True
        assert sorted(c["name"] for c in payload["checks"]) == sorted(
            r.name for r in reports
        )

    def test_seconds_recorded_only_when_timed(self, check_reports):
        rep = check_reports(verify.check_spectrum)
        assert "seconds" not in rep.to_record()
        timed = verify.CheckReport(rep.name, rep.passed, rep.values, rep.resolutions, 1.23456)
        assert timed.to_record()["seconds"] == 1.235

    def test_check_names_distinct(self, check_reports):
        names = [check_reports(c).name for c in verify.ALL_CHECKS]
        assert len(names) == 6
        assert len(set(names)) == 6


class TestMutationSensitivity:
    def test_forward_check_catches_wrong_jump(self, monkeypatch):
        # A wrong jump coefficient makes the marching equation inconsistent;
        # the disk-oracle comparison must go red.
        monkeypatch.setattr(forward, "JUMP_COEFF", 0.55)
        rep = verify.check_forward_convergence(verify.VerifyContext())
        assert not rep.passed

    def test_probe_oracle_catches_wrong_self_term(self, monkeypatch):
        # The uniform-flux disk route cannot see this defect: a constant
        # density is annihilated by the zero-sum log-quadrature correction.
        # The backward source trace drives spatially varying densities and
        # is the oracle that pins the singular self-block weight.
        from heatcavity.geometry import CurveSpec, make_curve

        # the log quadrature weights feed only the self block's log term
        weights = forward.log_quadrature_weights
        monkeypatch.setattr(forward, "log_quadrature_weights", lambda m: 1.5 * weights(m))
        omega = make_curve(CurveSpec("circle", (0.0, 0.0, 1.0)), 32)
        grid = forward.TimeGrid(0.5, 32)
        region = forward.assemble_blocks(omega, grid)
        p = forward.green_probe_traces(np.array([0.3, -0.2]), 0.4, omega, grid, region=region)
        live = grid.times < 0.4
        ref = disk_green(omega.nodes, 0.4 - grid.times[live], np.array([0.3, -0.2]))
        err = np.linalg.norm(p[:, live, 0] - ref) / np.linalg.norm(ref)
        assert err > 0.1  # clean build achieves ~3e-3 on this comparison
