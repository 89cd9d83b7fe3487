"""Numerical cross-examination of the operator identities behind the method.

Every check compares two genuinely independent computation routes — a
boundary-element quantity against a finite-difference or series oracle, or
two different operator compositions — and reports measured values next to
its pass/fail verdict.  Tolerances are refinement-convergence targets for
the chosen discretization, not claims inherited from theory.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import forward, ndmap, oracles, recon
from .forward import BoundaryField, TimeGrid, field_inner, field_norm
from .geometry import CurveSpec, make_curve

#: Concentric benchmark geometry: unit-circle conductor, r = 0.35 cavity.
OMEGA_SPEC = CurveSpec("circle", (0.0, 0.0, 1.0))
CAVITY_SPEC = CurveSpec("circle", (0.0, 0.0, 0.35))

#: Resolutions (M_omega, M_cavity, Nt): refinement checks run at BASE and
#: again at DOUBLED; spectral/indicator checks run at DOUBLED, where the
#: operator dimension (4096) is the largest the dense solver is sized for.
BASE_RESOLUTION = (32, 24, 32)
DOUBLED_RESOLUTION = (64, 48, 64)

#: Time horizon of the benchmark problems (diffusion length ~ domain size).
HORIZON = 0.5

#: Relative tolerance for identity residuals at the base resolution.
REL_TOL = 5e-2


@dataclass
class CheckReport:
    name: str
    passed: bool
    values: dict
    resolutions: dict

    def to_record(self) -> dict:
        def clean(x):
            if isinstance(x, dict):
                return {k: clean(v) for k, v in x.items()}
            if isinstance(x, (list, tuple, np.ndarray)):
                return [clean(v) for v in np.asarray(x).tolist()] if isinstance(
                    x, np.ndarray
                ) else [clean(v) for v in x]
            if isinstance(x, (np.floating, float)):
                return float(x)
            if isinstance(x, (np.integer, int)):
                return int(x)
            if isinstance(x, (np.bool_, bool)):
                return bool(x)
            return x

        return {
            "name": self.name,
            "passed": bool(self.passed),
            "values": clean(self.values),
            "resolutions": clean(self.resolutions),
        }


def _smooth_field(curve, grid, rng, n_space=4, n_time=3) -> BoundaryField:
    """Seeded smooth random boundary field (low Fourier x sine profiles)."""
    th = np.arange(curve.M) * 2.0 * np.pi / curve.M
    f = np.zeros(curve.M)
    for m in range(n_space + 1):
        f += rng.standard_normal() * np.cos(m * th) + rng.standard_normal() * np.sin(m * th)
    tt = grid.times / grid.T
    prof = np.zeros(grid.Nt)
    for q in range(n_time):
        prof += rng.standard_normal() * np.sin((q + 1) * np.pi * tt)
    return BoundaryField(curve, grid, np.outer(f, prof))


def _polar_cells(r0: float, r1: float, n: int = 64):
    """Midpoint polar quadrature cells on an annulus (or disk for r0=0)."""
    rs = r0 + (np.arange(n) + 0.5) * (r1 - r0) / n
    th = (np.arange(n) + 0.5) * 2.0 * np.pi / n
    R, TH = np.meshgrid(rs, th, indexing="ij")
    pts = np.stack([(R * np.cos(TH)).ravel(), (R * np.sin(TH)).ravel()], axis=1)
    areas = (R * (r1 - r0) / n * 2.0 * np.pi / n).ravel()
    return pts, areas


class VerifyContext:
    """Shared lazily-built problem setups so checks can reuse solves."""

    def __init__(
        self,
        omega_spec: CurveSpec = OMEGA_SPEC,
        cavity_spec: CurveSpec = CAVITY_SPEC,
        horizon: float = HORIZON,
    ):
        self.omega_spec = omega_spec
        self.cavity_spec = cavity_spec
        self.horizon = horizon

    def setup(self, resolution) -> ndmap.ProblemSetup:
        key = tuple(resolution)
        cache = self.__dict__.setdefault("_setups", {})
        if key not in cache:
            m_om, m_cav, nt = key
            omega = make_curve(self.omega_spec, m_om)
            cavity = make_curve(self.cavity_spec, m_cav)
            cache[key] = ndmap.ProblemSetup.build(omega, cavity, TimeGrid(self.horizon, nt))
        return cache[key]

    def operator_matrices(self, resolution) -> dict:
        key = tuple(resolution)
        cache = self.__dict__.setdefault("_mats", {})
        if key not in cache:
            st = self.setup(key)
            cache[key] = {
                "lambda_D": ndmap.assemble_lambda(st, True).matrix,
                "lambda_0": ndmap.assemble_lambda(st, False).matrix,
                "L": ndmap.assemble_L(st),
                "Lhat": ndmap.assemble_Lhat(st).matrix,
                "FL": ndmap.assemble_FL(st).matrix,
                "N": ndmap.assemble_N(st),
            }
        return cache[key]

    @cached_property
    def benchmark_S(self) -> np.ndarray:
        N = self.operator_matrices(DOUBLED_RESOLUTION)["N"]
        _, S = ndmap.symmetrize(N)
        return S

    @cached_property
    def benchmark_eigensystem(self) -> recon.EigenSystem:
        N = self.operator_matrices(DOUBLED_RESOLUTION)["N"]
        return recon.eigendecompose(self.benchmark_S, N.gram_domain, 1e-8)


def check_forward_convergence(ctx: VerifyContext | None = None) -> CheckReport:
    """Uniform-flux disk traces vs the radial finite-difference oracle.

    Two routes: the space-time boundary-element solve, and a 1D radial
    Crank-Nicolson scheme that knows nothing of layer potentials.
    """
    horizon = 1.0
    errors = []
    resolutions = [(16, 16), (32, 32), (64, 64)]
    for m, nt in resolutions:
        curve = make_curve(CurveSpec("circle", (0.0, 0.0, 1.0)), m)
        grid = TimeGrid(horizon, nt)
        region = forward.assemble_blocks(curve, grid)
        rho = forward.solve_neumann(region, np.ones((m, nt)))
        trace = forward.trace_on(rho, curve).values
        ref = oracles.radial_disk_trace(grid.times)
        err = np.sqrt(np.mean((trace - ref[None, :]) ** 2)) / np.sqrt(np.mean(ref**2))
        errors.append(float(err))
    orders = [float(np.log2(errors[i] / errors[i + 1])) for i in range(len(errors) - 1)]
    passed = (
        errors[1] <= 2e-2
        and all(errors[i + 1] < errors[i] for i in range(len(errors) - 1))
        and min(orders) >= 1.0
    )
    return CheckReport(
        "forward_convergence",
        passed,
        {"rel_l2_errors": errors, "empirical_orders": orders, "tolerance_at_32": 2e-2},
        {"disk": resolutions, "horizon": horizon},
    )


def check_duality(ctx: VerifyContext | None = None) -> CheckReport:
    """<theta, L phi>_W against <phi, L' theta>_W for seeded smooth pairs.

    L is applied by a forward cavity-system solve driven on the outer
    boundary; L' by the time-reversed solve driven on the cavity boundary
    — independent solve sets meeting only in the claimed identity.
    """
    ctx = ctx or VerifyContext()
    medians = []
    for resolution in (BASE_RESOLUTION, DOUBLED_RESOLUTION):
        st = ctx.setup(resolution)
        res = []
        for k in range(10):
            rng = np.random.default_rng(1000 + k)
            phi = _smooth_field(st.omega, st.grid, rng)
            theta = _smooth_field(st.cavity, st.grid, rng)
            a = field_inner(theta, ndmap.apply_L(st, phi))
            b = field_inner(phi, ndmap.apply_Lprime(st, theta))
            res.append(abs(a - b) / max(abs(a), abs(b)))
        medians.append(float(np.median(res)))
    passed = medians[0] <= REL_TOL and medians[1] <= 0.5 * medians[0]
    return CheckReport(
        "duality",
        passed,
        {"median_residuals": medians, "halving_ratio": medians[0] / medians[1], "tolerance": REL_TOL},
        {"base": BASE_RESOLUTION, "doubled": DOUBLED_RESOLUTION, "pairs": 10},
    )


def check_factorization(ctx: VerifyContext | None = None) -> CheckReport:
    """Both operator factorizations of the boundary-data difference.

    Route pair one: Lambda_D - Lambda_0 assembled from two independent
    solve sets vs the composition Lhat . FL.  Route pair two: the
    assembled N (time-reversal route) vs -L'.FL with L' realized through
    the weighted-transpose duality of L — a different discrete object.
    """
    ctx = ctx or VerifyContext()
    res35, res37 = [], []
    for resolution in (BASE_RESOLUTION, DOUBLED_RESOLUTION):
        mats = ctx.operator_matrices(resolution)
        diff = mats["lambda_D"] - mats["lambda_0"]
        r35 = np.linalg.norm(diff - mats["Lhat"] @ mats["FL"]) / np.linalg.norm(diff)
        lp = ndmap.lprime_from_duality(mats["L"]).matrix
        nmat = mats["N"].matrix
        r37 = np.linalg.norm(nmat + lp @ mats["FL"]) / np.linalg.norm(nmat)
        res35.append(float(r35))
        res37.append(float(r37))
    # cavity-free path: the modified map vanishes identically
    omega16 = make_curve(ctx.omega_spec, 16)
    st_empty = ndmap.ProblemSetup.build(omega16, None, TimeGrid(ctx.horizon, 16))
    n_empty = float(np.abs(ndmap.assemble_N(st_empty).matrix).max())
    passed = (
        res35[0] <= REL_TOL
        and res37[0] <= REL_TOL
        and res35[1] < res35[0]
        and res37[1] < res37[0]
        and n_empty == 0.0
    )
    return CheckReport(
        "factorization",
        passed,
        {
            "data_vs_Lhat_FL": res35,
            "N_vs_dual_route": res37,
            "no_cavity_N_max": n_empty,
            "tolerance": REL_TOL,
        },
        {"base": BASE_RESOLUTION, "doubled": DOUBLED_RESOLUTION},
    )


def check_F_sign(ctx: VerifyContext | None = None) -> CheckReport:
    """Nonpositivity of the transmission quadratic form, plus its energy.

    The form <FL phi, L phi>_W is cross-checked against the interior
    energy evaluation -(1/2 int v(T)^2 + int int |grad v|^2) of the
    transmission field v, quadratured on 64x64 polar cells per subdomain.
    """
    ctx = ctx or VerifyContext()
    st = ctx.setup(BASE_RESOLUTION)
    worst = -np.inf
    for k in range(20):
        rng = np.random.default_rng(2000 + k)
        phi = _smooth_field(st.omega, st.grid, rng)
        quad = field_inner(ndmap.apply_FL(st, phi), ndmap.apply_L(st, phi))
        worst = max(worst, quad / field_norm(ndmap.apply_L(st, phi)) ** 2)
    sign_ok = worst <= 1e-10

    rng = np.random.default_rng(3)
    phi = _smooth_field(st.omega, st.grid, rng)
    lhs = field_inner(ndmap.apply_FL(st, phi), ndmap.apply_L(st, phi))
    rhs = _energy_identity(st, phi)
    energy_rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs))
    passed = sign_ok and energy_rel <= 0.10
    return CheckReport(
        "F_sign",
        passed,
        {
            "worst_form_over_norm2": float(worst),
            "sign_bound": 1e-10,
            "quadratic_form": float(lhs),
            "energy_identity": float(rhs),
            "energy_rel_diff": float(energy_rel),
        },
        {"resolution": BASE_RESOLUTION, "seeds": 20, "polar_cells": [64, 64]},
    )


def _energy_identity(st: ndmap.ProblemSetup, phi: BoundaryField) -> float:
    """-(terminal + gradient) energy of the transmission field for phi.

    v is represented piecewise: outside the cavity v = w - u0 (cavity-
    problem field minus cavity-free field), inside v = -u0; both fields
    are layer potentials, so values and gradients come from their
    densities.  Assumes the concentric circle benchmark geometry.
    """
    grid = st.grid
    rho0 = forward.solve_neumann(st.omega_system, phi.values)
    flux = np.zeros((st.cavity_system.M_total, grid.Nt))
    flux[st.cavity_system.component_slice(0)] = phi.values
    rhow = forward.solve_neumann(st.cavity_system, flux)
    r_cav = st.cavity.spec.params[2]
    r_out = st.omega.spec.params[2]
    tT = np.array([grid.T])

    total_T = 0.0
    total_G = 0.0
    for r0, r1, inside in ((0.0, r_cav, True), (r_cav, r_out, False)):
        pts, areas = _polar_cells(r0, r1)
        vT = -forward.potential_at(rho0, pts, tT)[:, 0]
        if not inside:
            vT += forward.potential_at(rhow, pts, tT)[:, 0]
        total_T += 0.5 * float(np.sum(vT**2 * areas))
        for lo in range(0, len(pts), 512):
            p = pts[lo : lo + 512]
            gv = -forward.gradient_at(rho0, p, grid.times)
            if not inside:
                gv += forward.gradient_at(rhow, p, grid.times)
            total_G += float(
                np.sum((gv**2).sum(axis=1) * areas[lo : lo + 512, None]) * grid.dt
            )
    return -total_T - total_G


def check_spectrum(ctx: VerifyContext | None = None) -> CheckReport:
    """Symmetry and near-positivity of S on the concentric benchmark.

    Also reports the eigenvalue decay (counts per decade below the top),
    which the compactness of the underlying maps predicts to be fast.
    """
    ctx = ctx or VerifyContext()
    S = ctx.benchmark_S
    sym_rel = float(np.linalg.norm(S - S.T) / np.linalg.norm(S))
    lam = np.linalg.eigvalsh(S)[::-1]
    lam1 = float(lam[0])
    min_ratio = float(lam[-1] / lam1)
    decades = {
        f"1e-{d}": int(np.sum(lam >= 10.0 ** (-d) * lam1)) for d in (1, 2, 3, 4, 6, 8)
    }
    passed = lam1 > 0 and min_ratio >= -1e-6 and sym_rel <= 1e-12
    return CheckReport(
        "spectrum",
        passed,
        {
            "lambda_1": lam1,
            "min_eig_over_lambda_1": min_ratio,
            "symmetry_rel": sym_rel,
            "top_eigenvalues": [float(v) for v in lam[:8]],
            "count_above_ratio": decades,
        },
        {"benchmark": DOUBLED_RESOLUTION, "horizon": ctx.horizon},
    )


def check_probe_dichotomy(ctx: VerifyContext | None = None) -> CheckReport:
    """Indicator separation between interior and exterior probe points.

    Five points inside the cavity and five outside it (all inside the
    conductor) at the mid-horizon sampling time; the range dichotomy
    predicts finite indicator values inside and collapse outside.  Also
    reports the growth of the Picard partial sums across the last decade
    of retained eigenvalues — the ratio-test face of the same dichotomy.
    """
    ctx = ctx or VerifyContext()
    st = ctx.setup(DOUBLED_RESOLUTION)
    eig = ctx.benchmark_eigensystem
    s = ctx.horizon / 2.0
    interior = [(0.0, 0.0), (0.15, 0.1), (-0.12, 0.18), (0.05, -0.22), (-0.2, -0.1)]
    exterior = [(0.55, 0.0), (-0.4, 0.45), (0.1, -0.62), (-0.68, -0.2), (0.45, 0.5)]

    def w_and_growth(pt):
        probe = forward.green_probe_trace(
            np.asarray(pt), s, st.omega, st.grid, region=st.omega_system
        )
        w = recon.picard_indicator(eig, probe)
        sums = recon.picard_partial_sums(eig, probe)
        lam = eig.retained_lambdas
        edge = lam[-1] * 10.0
        k = int(np.searchsorted(-lam, -edge))
        growth = float(sums[-1] / sums[max(k, 1) - 1])
        return w, growth

    wi, gi = zip(*(w_and_growth(p) for p in interior))
    we, ge = zip(*(w_and_growth(p) for p in exterior))
    passed = min(wi) > max(we)
    return CheckReport(
        "probe_dichotomy",
        passed,
        {
            "interior_W": [float(v) for v in wi],
            "exterior_W": [float(v) for v in we],
            "interior_last_decade_growth": [float(v) for v in gi],
            "exterior_last_decade_growth": [float(v) for v in ge],
            "separation": float(min(wi) / max(we)),
        },
        {"benchmark": DOUBLED_RESOLUTION, "s": s, "points_per_side": 5},
    )


ALL_CHECKS = (
    check_forward_convergence,
    check_duality,
    check_factorization,
    check_F_sign,
    check_spectrum,
    check_probe_dichotomy,
)


def report_to_json(reports: list[CheckReport]) -> str:
    payload = {
        "suite": "operator-identity checks",
        "all_passed": all(r.passed for r in reports),
        "checks": [r.to_record() for r in reports],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
