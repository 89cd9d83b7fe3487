"""Cross-route verification suite: clean runs pass, seeded defects are caught."""

import json

import numpy as np
import pytest

from heatcavity import forward, verify


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

    def test_operator_matrices_complete(self, bench_ops):
        assert set(bench_ops) == {"lambda_D", "lambda_0", "L", "Lhat", "FL", "N"}
        dim = verify.BASE_RESOLUTION[0] * verify.BASE_RESOLUTION[2]
        assert bench_ops["lambda_D"].shape == (dim, dim)
        assert bench_ops["N"].matrix.shape == (dim, dim)


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

    def test_probe_dichotomy(self, check_reports):
        rep = check_reports(verify.check_probe_dichotomy)
        assert rep.passed
        assert min(rep.values["interior_W"]) > max(rep.values["exterior_W"])
        assert rep.values["separation"] > 1.0


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
        from heatcavity import oracles
        from heatcavity.geometry import CurveSpec, make_curve

        monkeypatch.setattr(forward, "SELF_TERM_SCALE", 1.5)
        omega = make_curve(CurveSpec("circle", (0.0, 0.0, 1.0)), 32)
        grid = forward.TimeGrid(0.5, 32)
        region = forward.assemble_blocks(omega, grid)
        p = forward.green_probe_trace(
            np.array([0.3, -0.2]), 0.4, omega, grid, region=region
        )
        live = grid.times < 0.4
        ref = oracles.disk_green(omega.nodes, 0.4 - grid.times[live], np.array([0.3, -0.2]))
        err = np.linalg.norm(p.values[:, live] - ref) / np.linalg.norm(ref)
        assert err > 0.1  # clean build achieves ~3e-3 on this comparison
