"""Acceptance gate: eight go/no-go criteria, one verdict line each.

Run ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion.  Criterion 7 is a strict expected failure: at the stated
noise level no spectral cutoff reaches the robustness target, and the
test records the measured shortfall instead of relaxing the bound.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from heatcavity import ndmap, recon, verify
from heatcavity.ndmap import NoiseSpec
from heatcavity.recon import SamplingSpec

GATE_CFG = """\
omega_kind=circle
omega_params=0,0,1
cavity_kind=circle
cavity_params=0,0,0.35
M_omega=16
M_cavity=12
Nt=8
T=0.5
nx=9
ny=9
margin=0.2
threshold=0.2
"""


def test_criterion_1_forward_disk_oracle(check_reports):
    rep = check_reports(verify.check_forward_convergence)
    errs = rep.values["rel_l2_errors"]
    assert errs[1] <= 2e-2, f"rel L2 error at (32,32) is {errs[1]:.3e}"
    assert errs[2] < errs[1] < errs[0], f"errors not monotone: {errs}"
    assert check_reports.seconds["check_forward_convergence"] < 30.0
    assert rep.passed


def test_criterion_2_duality_residual(check_reports):
    rep = check_reports(verify.check_duality)
    med = rep.values["median_residuals"]
    assert rep.resolutions["pairs"] == 10
    assert med[0] <= 5e-2, f"base median residual {med[0]:.3e}"
    assert med[1] <= 0.5 * med[0], f"no halving: {med}"
    assert check_reports.seconds["check_duality"] < 120.0
    assert rep.passed


def test_criterion_3_factorization_identities(check_reports):
    rep = check_reports(verify.check_factorization)
    r_data = rep.values["data_vs_Lhat_FL"]
    r_dual = rep.values["N_vs_dual_route"]
    assert r_data[0] <= 5e-2, f"data-difference route residual {r_data[0]:.3e}"
    assert r_dual[0] <= 5e-2, f"dual route residual {r_dual[0]:.3e}"
    assert r_data[1] < r_data[0] and r_dual[1] < r_dual[0], "no decrease under refinement"
    assert rep.values["no_cavity_N_max"] == 0.0
    assert check_reports.seconds["check_factorization"] < 600.0
    assert rep.passed


def test_criterion_4_quadratic_form_sign_and_energy(check_reports):
    rep = check_reports(verify.check_F_sign)
    assert rep.resolutions["seeds"] == 20
    assert rep.values["worst_form_over_norm2"] <= 1e-10, (
        f"worst normalized form {rep.values['worst_form_over_norm2']:.3e}"
    )
    assert rep.values["energy_rel_diff"] <= 0.10, (
        f"energy cross-check off by {rep.values['energy_rel_diff']:.3f}"
    )
    assert rep.passed


def test_criterion_5_symmetrized_operator_positivity(check_reports):
    rep = check_reports(verify.check_spectrum)
    assert rep.values["symmetry_rel"] <= 1e-12, (
        f"relative asymmetry {rep.values['symmetry_rel']:.3e}"
    )
    assert rep.values["lambda_1"] > 0.0
    assert rep.values["min_eig_over_lambda_1"] >= -1e-6, (
        f"most negative eigenvalue ratio {rep.values['min_eig_over_lambda_1']:.3e}"
    )
    assert rep.passed


@pytest.fixture(scope="session")
def benchmark_reconstruction(verify_ctx):
    """Clean 21x21 reconstruction on the concentric benchmark, mid-horizon."""
    t0 = time.perf_counter()
    st = verify_ctx.setup(verify.DOUBLED_RESOLUTION)
    eig = verify_ctx.benchmark_eigensystem
    grid_out = recon.reconstruct(
        eig,
        st.omega,
        st.grid,
        SamplingSpec(21, 21, 1, None),
        0.2,
        cavity=st.cavity,
        region=st.omega_system,
    )
    return grid_out, time.perf_counter() - t0


def test_criterion_6_indicator_dichotomy_and_mask(benchmark_reconstruction):
    grid_out, seconds = benchmark_reconstruction
    w = grid_out.values
    inside = grid_out.truth
    wi, we = w[inside], w[~inside]
    assert len(wi) > 0 and len(we) > 0
    assert np.all(np.isfinite(w))
    assert wi.min() > we.max(), (
        f"dichotomy broken: min interior {wi.min():.3e} vs max exterior {we.max():.3e}"
    )
    ratio = float(np.median(wi) / np.median(we))
    assert ratio >= 5.0, f"median indicator ratio {ratio:.2f}"
    j = recon.jaccard(grid_out.mask, grid_out.truth)
    assert j >= 0.5, f"mask jaccard {j:.3f}"
    assert seconds < 1200.0, f"reconstruction stage took {seconds:.0f}s"


@pytest.mark.xfail(
    strict=True,
    reason="measured: 1e-3 additive Gaussian data noise with the matching "
    "spectral cutoff collapses the retained spectrum to a few pairs; the "
    "mask jaccard drops from ~0.82 to ~0.23 (degradation ~0.59 vs the "
    "0.15 target) and no cutoff choice at this noise level closes the gap",
)
def test_criterion_7_noise_robustness(verify_ctx, benchmark_reconstruction):
    clean_grid, _ = benchmark_reconstruction
    j_clean = recon.jaccard(clean_grid.mask, clean_grid.truth)

    st = verify_ctx.setup(verify.DOUBLED_RESOLUTION)
    noisy = ndmap.add_noise(
        verify_ctx.operator_matrices(verify.DOUBLED_RESOLUTION)["N"],
        NoiseSpec(1e-3, 1),
    )
    S = ndmap.symmetrize(noisy)
    eig = recon.eigendecompose(S, noisy.gram_domain, 1e-3)
    noisy_grid = recon.reconstruct(
        eig,
        st.omega,
        st.grid,
        SamplingSpec(21, 21, 1, None),
        0.2,
        cavity=st.cavity,
        region=st.omega_system,
    )
    j_noisy = recon.jaccard(noisy_grid.mask, noisy_grid.truth)
    degradation = j_clean - j_noisy
    print(
        f"noise robustness: clean jaccard {j_clean:.3f}, noisy {j_noisy:.3f}, "
        f"degradation {degradation:.3f}, retained pairs {eig.retained}"
    )
    assert degradation <= 0.15, (
        f"jaccard degraded by {degradation:.3f} "
        f"(clean {j_clean:.3f} -> noisy {j_noisy:.3f}), target was <= 0.15"
    )


def test_criterion_8_bitwise_determinism(tmp_path):
    cfg_path = tmp_path / "gate.cfg"
    cfg_path.write_text(GATE_CFG)

    def run(out, threads):
        for command in ("simulate", "reconstruct"):
            argv = [
                sys.executable,
                "-m",
                "heatcavity.cli",
                command,
                "--config",
                str(cfg_path),
                "--out",
                str(out),
                "--threads",
                str(threads),
            ]
            proc = subprocess.run(argv, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
        names = (
            "lambda_D.stop1",
            "lambda_0.stop1",
            "N.stop1",
            "N.gram",
            "spectrum.csv",
            "indicator.csv",
        )
        return {name: (out / name).read_bytes() for name in names}

    first = run(tmp_path / "run1", threads=1)
    rerun = run(tmp_path / "run2", threads=1)
    threaded = run(tmp_path / "run3", threads=4)
    assert rerun == first, "artifacts changed between identical runs"
    assert threaded == first, "artifacts changed with the thread count"
