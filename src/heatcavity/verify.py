"""Numerical cross-examination of the operator identities behind the method.

Every check compares two genuinely independent computation routes — a
boundary-element quantity against a finite-difference oracle, or
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
    seconds: float | None = None  # wall time of the check, when timed

    def to_record(self) -> dict:
        # the checks store Python numbers, lists, tuples and dicts, which
        # json writes as they are (a tuple as a list)
        record = {
            "name": self.name,
            "passed": bool(self.passed),
            "values": self.values,
            "resolutions": self.resolutions,
        }
        if self.seconds is not None:
            # milliseconds: more digits would only lengthen verify.json
            record["seconds"] = round(float(self.seconds), 3)
        return record


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
    """Problem setups, with their impulse responses, and N per resolution,
    built once and shared by the checks; N is the one dense operator kept."""

    def __init__(self):
        self._setups: dict = {}
        self._N: dict = {}

    def setup(self, resolution) -> ndmap.ProblemSetup:
        key = tuple(resolution)
        cache = self._setups
        if key not in cache:
            m_om, m_cav, nt = key
            omega = make_curve(OMEGA_SPEC, m_om)
            cavity = make_curve(CAVITY_SPEC, m_cav)
            cache[key] = ndmap.ProblemSetup.build(omega, cavity, TimeGrid(HORIZON, nt))
        return cache[key]

    def modified_operator(self, resolution) -> ndmap.SpaceTimeOperator:
        """The modified operator N, composed from the setup's responses."""
        key = tuple(resolution)
        if key not in self._N:
            self._N[key] = ndmap.assemble_N(self.setup(key))
        return self._N[key]

    @cached_property
    def benchmark_eigensystem(self) -> recon.EigenSystem:
        """The eigensystem of S at DOUBLED_RESOLUTION; its symmetry_rel is
        ||S - S.T|| / ||S||, measured by eigendecompose's own check."""
        N = self.modified_operator(DOUBLED_RESOLUTION)
        S, gram = ndmap.symmetrize(N)[0], N.gram_domain
        # eigh runs on S and 1.5n^2 doubles alone: N leaves the cache (a
        # later call composes it again) and S's buffer becomes the vectors
        del self._N[tuple(DOUBLED_RESOLUTION)], N
        return recon.eigendecompose(S, gram, 1e-8)


def check_forward_convergence(ctx: VerifyContext | None = None) -> CheckReport:
    """Uniform-flux disk traces vs the radial finite-difference oracle.

    Two routes: the space-time boundary-element solve, and a 1D radial
    Crank-Nicolson scheme that knows nothing of layer potentials.
    """
    horizon = 1.0
    errors = []
    resolutions = [(16, 16), (32, 32), (64, 64)]
    grids = [TimeGrid(horizon, nt) for _, nt in resolutions]
    # one oracle run serves every grid: a shorter run is a prefix of it
    ref_all = oracles.radial_disk_trace(np.concatenate([g.times for g in grids]))
    refs = np.split(ref_all, np.cumsum([g.Nt for g in grids])[:-1])
    for (m, nt), grid, ref in zip(resolutions, grids, refs):
        curve = make_curve(CurveSpec("circle", (0.0, 0.0, 1.0)), m)
        region = forward.assemble_blocks(curve, grid)
        rho = forward.solve_neumann(region, np.ones((m, nt)))
        trace = forward.trace_on(rho, curve).values
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

    L is applied through the impulse responses of the outer-flux solve set;
    L' through the time-reversed ones of the cavity-flux solve set —
    independent solve sets meeting only in the claimed identity.
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
            a = field_inner(theta, ndmap.apply(st, "L", phi))
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


def _data_responses(st: ndmap.ProblemSetup):
    """Responses of Lambda_D - Lambda_0 and of its residual against Lhat.FL,
    whose responses are the lag convolution of those of Lhat and FL."""
    r = st.responses
    diff = r["lambda_D"] - r["lambda_0"]
    return diff, diff - forward._convolve(r["Lhat"].transpose(1, 0, 2), r["FL"])


def _dual_route_sum(st: ndmap.ProblemSetup):
    """N + L'.FL, L' the weighted-transpose dual of L: L' = R E_L R with E_L
    causal of responses e_L[i, a, c] = r_L[c, a, i] w_c / w_i (r_L those of
    L, w the node weights), so the sum is R (Lhat + E_L) R FL."""
    r = st.responses
    e_L = r["L"].transpose(2, 1, 0) * (st.cavity.weights / st.omega.weights[:, None, None])
    return ndmap.compose_N(st.omega, st.grid, r["FL"], r["Lhat"] + e_L)


def check_factorization(ctx: VerifyContext | None = None) -> CheckReport:
    """Both operator factorizations of the boundary-data difference.

    Route pair one: Lambda_D - Lambda_0 from two independent solve sets vs
    the composition Lhat . FL, compared as impulse responses (all three maps
    are block lower-Toeplitz).  Route pair two: N (time-reversal route) vs
    -L'.FL with L' realized through the weighted-transpose duality of L — a
    different discrete object.  The only dense maps are N and N + L'.FL,
    never alive together.
    """
    ctx = ctx or VerifyContext()
    res35, res37 = [], []
    for resolution in (BASE_RESOLUTION, DOUBLED_RESOLUTION):
        st = ctx.setup(resolution)
        diff, resid = _data_responses(st)
        res35.append(ndmap._toeplitz_norm(resid) / ndmap._toeplitz_norm(diff))
        dual = np.linalg.norm(_dual_route_sum(st).matrix)
        res37.append(float(dual / np.linalg.norm(ctx.modified_operator(resolution).matrix)))
    # cavity-free path: the modified map vanishes identically
    omega16 = make_curve(OMEGA_SPEC, 16)
    st_empty = ndmap.ProblemSetup.build(omega16, None, TimeGrid(HORIZON, 16))
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
        lphi = ndmap.apply(st, "L", phi)
        quad = field_inner(ndmap.apply(st, "FL", phi), lphi)
        worst = max(worst, quad / field_norm(lphi) ** 2)
    sign_ok = worst <= 1e-10

    rng = np.random.default_rng(3)
    phi = _smooth_field(st.omega, st.grid, rng)
    lhs = field_inner(ndmap.apply(st, "FL", phi), ndmap.apply(st, "L", phi))
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
    problem field minus cavity-free field), inside v = -u0.  Both are layer
    potentials: u0's conductor nodes are the cavity system's leading ones,
    so w - u0 is w's density less u0's on those rows.  Assumes the
    concentric circle benchmark geometry.
    """
    grid = st.grid
    rho0 = forward.solve_neumann(st.omega_system, phi.values)
    rows = st.cavity_system.component_slice(0)
    flux = np.zeros((st.cavity_system.M_total, grid.Nt))
    flux[rows] = phi.values
    outside = forward.solve_neumann(st.cavity_system, flux)
    outside.values[rows] -= rho0.values
    inside = forward.LayerDensity(st.omega_system, -rho0.values)
    r_cav = st.cavity.spec.params[2]
    r_out = st.omega.spec.params[2]
    tT = np.array([grid.T])

    total_T = 0.0
    total_G = 0.0
    for r0, r1, v in ((0.0, r_cav, inside), (r_cav, r_out, outside)):
        pts, areas = _polar_cells(r0, r1)
        # the chunk size fixes the row counts of the BLAS products, and so
        # the bits of the gradients
        for lo in range(0, len(pts), 512):
            p, a = pts[lo : lo + 512], areas[lo : lo + 512]
            vT = forward.potential_at(v, p, tT)[:, 0]
            gv = forward.gradient_at(v, p, grid.times)
            total_T += 0.5 * float(np.sum(vT**2 * a))
            total_G += float(np.sum((gv**2).sum(axis=1) * a[:, None]) * grid.dt)
    return -total_T - total_G


def check_spectrum(ctx: VerifyContext | None = None) -> CheckReport:
    """Symmetry and near-positivity of S on the concentric benchmark.

    Also reports the eigenvalue decay (counts per decade below the top),
    which the compactness of the underlying maps predicts to be fast.
    """
    ctx = ctx or VerifyContext()
    eig = ctx.benchmark_eigensystem
    sym_rel = eig.symmetry_rel
    lam = eig.lambdas
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
        {"benchmark": DOUBLED_RESOLUTION, "horizon": HORIZON},
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
    s = HORIZON / 2.0
    interior = [(0.0, 0.0), (0.15, 0.1), (-0.12, 0.18), (0.05, -0.22), (-0.2, -0.1)]
    exterior = [(0.55, 0.0), (-0.4, 0.45), (0.1, -0.62), (-0.68, -0.2), (0.45, 0.5)]
    points = np.array(interior + exterior)
    probes = forward.green_probe_traces(points, s, st.omega, st.grid, region=st.omega_system)
    # a column at a time, as matrix-vector products: with several columns the
    # product is a threaded dgemm whose BLAS buffers, touched by nothing else
    # in verify, add about 1 MB to the command's peak RSS
    columns = np.split(probes.reshape(-1, len(points)), len(points), axis=1)
    w = np.concatenate([recon.picard_indicator(eig, c) for c in columns])
    sums = np.hstack([recon.picard_partial_sums(eig, c) for c in columns])
    lam = eig.retained_lambdas
    k = int(np.searchsorted(-lam, -lam[-1] * 10.0))
    growth = sums[-1] / sums[max(k, 1) - 1]
    (wi, we), (gi, ge) = np.split(w, 2), np.split(growth, 2)
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
