"""Dense space-time matrices for the boundary operators of the method.

Every operator acts on coefficient vectors over the basis "value at node i,
time cell k", flattened node-major with time fastest (index i*Nt + k).  The
discrete inner product on a boundary cylinder is the diagonal Gram
w_{i,k} = arclength_weight_i * dt, and duals/adjoints below are always
taken with respect to it.

The flux-to-temperature maps are block-Toeplitz in time (the underlying
problems are autonomous), so each one is assembled from M impulse solves —
one per boundary node, all with flux concentrated in time cell 0 — and
expanded along the causal diagonals.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .forward import (
    BoundaryField,
    RetardedBlocks,
    TimeGrid,
    _trace_values,
    assemble_blocks,
    gram_weights,
    solve_neumann,
)
from .geometry import BoundaryCurve


@dataclass
class SpaceTimeOperator:
    """Dense operator between boundary-cylinder coefficient spaces."""

    matrix: np.ndarray
    domain: tuple[BoundaryCurve, TimeGrid]
    codomain: tuple[BoundaryCurve, TimeGrid]
    gram_domain: np.ndarray
    gram_codomain: np.ndarray

    def __post_init__(self):
        n_c, n_d = self.matrix.shape
        if self.gram_codomain.shape != (n_c,) or self.gram_domain.shape != (n_d,):
            raise ValueError("gram weight lengths do not match the matrix")
        if np.any(self.gram_domain <= 0) or np.any(self.gram_codomain <= 0):
            raise ValueError("gram weights must be strictly positive")

    @property
    def is_square(self) -> bool:
        return self.matrix.shape[0] == self.matrix.shape[1]

    def apply(self, phi) -> BoundaryField:
        vec = phi.flatten() if isinstance(phi, BoundaryField) else np.asarray(phi)
        curve, grid = self.codomain
        return BoundaryField(
            curve, grid, (self.matrix @ vec).reshape(curve.M, grid.Nt)
        )


@dataclass(frozen=True)
class NoiseSpec:
    level: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.level < 1.0:
            raise ValueError(f"noise level must be in [0, 1), got {self.level}")


@dataclass
class ProblemSetup:
    """Discretized conductor/cavity pair with cached lag blocks."""

    omega: BoundaryCurve
    cavity: BoundaryCurve | None
    grid: TimeGrid
    omega_system: RetardedBlocks
    cavity_system: RetardedBlocks | None

    @classmethod
    def build(cls, omega: BoundaryCurve, cavity: BoundaryCurve | None, grid: TimeGrid):
        omega_system = assemble_blocks(omega, grid)
        cavity_system = (
            assemble_blocks((omega, cavity), grid) if cavity is not None else None
        )
        return cls(omega, cavity, grid, omega_system, cavity_system)

    def require_cavity(self) -> RetardedBlocks:
        if self.cavity_system is None:
            raise ValueError("operation requires a cavity in the geometry")
        return self.cavity_system


def _toeplitz_expand(resp: np.ndarray) -> np.ndarray:
    """Expand impulse responses (M_tgt, Nt, M_src) along causal diagonals."""
    m_tgt, nt, m_src = resp.shape
    full = np.zeros((m_tgt, nt, m_src, nt))
    for k in range(nt):
        full[:, k:, :, k] = resp[:, : nt - k, :]
    return full.reshape(m_tgt * nt, m_src * nt)


def _reverse_rows(mat: np.ndarray, m: int, nt: int) -> np.ndarray:
    """Left-multiply by the time-reversal permutation of an (m, nt) basis."""
    return mat.reshape(m, nt, -1)[:, ::-1, :].reshape(m * nt, -1)


def _operator(matrix: np.ndarray, domain: tuple, codomain: tuple) -> SpaceTimeOperator:
    """Operator between (curve, grid) spaces, each with its Gram weights."""
    return SpaceTimeOperator(
        matrix, domain, codomain, gram_weights(*domain), gram_weights(*codomain)
    )


def _response(
    region: RetardedBlocks, source: int, values: np.ndarray, target: BoundaryCurve, normal=False
) -> np.ndarray:
    """Trace on target, or with normal minus its normal derivative, of the
    field driven by flux values (M_src, Nt[, R]) on region component source
    and zero flux on the other component."""
    flux = np.zeros((region.M_total,) + values.shape[1:])
    flux[region.component_slice(source)] = values
    resp = _trace_values(solve_neumann(region, flux), target, normal)
    return -resp if normal else resp


def _flux_map(
    setup: ProblemSetup, region: RetardedBlocks, source: int, target: BoundaryCurve, normal=False
) -> SpaceTimeOperator:
    """Flux on region component source to the trace on target, or with normal
    to minus its normal derivative, assembled from impulse responses: one
    right-hand side per source node, flux 1 in time cell 0."""
    curve = (setup.omega, setup.cavity)[source]
    impulses = np.zeros((curve.M, setup.grid.Nt, curve.M))
    impulses[np.arange(curve.M), 0, np.arange(curve.M)] = 1.0
    resp = _response(region, source, impulses, target, normal)
    return _operator(_toeplitz_expand(resp), (curve, setup.grid), (target, setup.grid))


def assemble_lambda(setup: ProblemSetup, with_cavity: bool) -> SpaceTimeOperator:
    """Flux-to-temperature map on the outer boundary (with or without D)."""
    region = setup.require_cavity() if with_cavity else setup.omega_system
    return _flux_map(setup, region, 0, setup.omega)


def assemble_L(setup: ProblemSetup) -> SpaceTimeOperator:
    """Outer flux to cavity-boundary temperature (virtual measurement)."""
    return _flux_map(setup, setup.require_cavity(), 0, setup.cavity)


def assemble_Lhat(setup: ProblemSetup) -> SpaceTimeOperator:
    """Cavity flux to outer-boundary temperature (back projection)."""
    return _flux_map(setup, setup.require_cavity(), 1, setup.omega)


def assemble_FL(setup: ProblemSetup) -> SpaceTimeOperator:
    """Composite transmission map: outer flux phi to -dnu u0 on the cavity.

    u0 is the cavity-free conductor solution driven by phi; its negated
    normal flux through the (virtual) cavity boundary is exactly the
    transmission operator applied to the virtual measurement of phi, so
    the composite needs no transmission solver.
    """
    setup.require_cavity()
    return _flux_map(setup, setup.omega_system, 0, setup.cavity, normal=True)


def assemble_N(setup: ProblemSetup) -> SpaceTimeOperator:
    """Modified flux-to-temperature map N on the outer boundary.

    N phi = R[ Lhat( R( FL phi ) ) ] with R the time reversal; this equals
    the backward-projected composition L'(-F)L without ever inverting the
    auxiliary bridge operator.  Without a cavity, N = 0 identically.
    """
    if setup.cavity is not None:
        return compose_N(setup, assemble_FL(setup).matrix, assemble_Lhat(setup).matrix)
    pair = (setup.omega, setup.grid)
    n = setup.omega.M * setup.grid.Nt
    return _operator(np.zeros((n, n)), pair, pair)


def compose_N(setup: ProblemSetup, fl: np.ndarray, lhat: np.ndarray) -> SpaceTimeOperator:
    """N = R Lhat R FL from already assembled FL and Lhat matrices."""
    inner = lhat @ _reverse_rows(fl, setup.cavity.M, setup.grid.Nt)
    mat = _reverse_rows(inner, setup.omega.M, setup.grid.Nt)
    pair = (setup.omega, setup.grid)
    return _operator(mat, pair, pair)


def lprime_from_duality(L_op: SpaceTimeOperator) -> SpaceTimeOperator:
    """Dual of the virtual measurement map in the weighted inner products.

    Independent realization of the backward-projection operator: instead
    of time-reversing cavity-flux solves, transpose the assembled forward
    map against the Gram weights.
    """
    g_dom = L_op.gram_domain
    g_cod = L_op.gram_codomain
    mat = (L_op.matrix * g_cod[:, None]).T / g_dom[:, None]
    return SpaceTimeOperator(
        mat, L_op.codomain, L_op.domain, g_cod, g_dom
    )


def time_reversal(obj):
    """Reverse the time cells of a field, or conjugate an operator by R."""
    if isinstance(obj, BoundaryField):
        return BoundaryField(obj.curve, obj.grid, obj.values[:, ::-1].copy())
    if isinstance(obj, SpaceTimeOperator):
        m_c, nt_c = obj.codomain[0].M, obj.codomain[1].Nt
        m_d, nt_d = obj.domain[0].M, obj.domain[1].Nt
        mat = _reverse_rows(obj.matrix, m_c, nt_c)
        mat = mat.reshape(-1, m_d, nt_d)[:, :, ::-1].reshape(mat.shape[0], m_d * nt_d)
        return replace(obj, matrix=mat)
    raise TypeError(f"cannot time-reverse {type(obj).__name__}")


def apply_L(setup: ProblemSetup, phi: BoundaryField) -> BoundaryField:
    """Virtual measurement: cavity-boundary trace of the phi-driven field."""
    resp = _response(setup.require_cavity(), 0, phi.values, setup.cavity)
    return BoundaryField(setup.cavity, setup.grid, resp)


def apply_Lhat(setup: ProblemSetup, theta: BoundaryField) -> BoundaryField:
    """Back projection: outer trace of the field driven by cavity flux."""
    resp = _response(setup.require_cavity(), 1, theta.values, setup.omega)
    return BoundaryField(setup.omega, setup.grid, resp)


def apply_Lprime(setup: ProblemSetup, theta: BoundaryField) -> BoundaryField:
    """Backward-in-time back projection via the time-reversal reduction.

    Substituting t -> T - t turns the terminal-value backward problem into
    the forward cavity-flux problem with reversed data, so
    L' theta = -R[ Lhat(R theta) ].
    """
    rev = time_reversal(theta)
    out = apply_Lhat(setup, rev)
    out = time_reversal(out)
    out.values = -out.values
    return out


def apply_FL(setup: ProblemSetup, phi: BoundaryField) -> BoundaryField:
    """Transmission-composite applied to phi: -dnu u0 on the cavity boundary."""
    setup.require_cavity()
    resp = _response(setup.omega_system, 0, phi.values, setup.cavity, normal=True)
    return BoundaryField(setup.cavity, setup.grid, resp)


def symmetrize(N_op: SpaceTimeOperator) -> np.ndarray:
    """Exactly symmetric S = G^{1/2} Ntilde G^{-1/2}, similar to the symmetrized N.

    Ntilde = (N + N')/2 with N' the Gram-weighted transpose (the
    coefficient-space Riesz maps are taken as the identity).  S is exactly
    symmetric and has the spectrum of Ntilde in the weighted inner product;
    Ntilde itself is never formed.
    """
    if not N_op.is_square:
        raise ValueError("symmetrization needs a square operator")
    sqrt_g = np.sqrt(N_op.gram_domain)
    b = N_op.matrix * (sqrt_g[:, None] / sqrt_g[None, :])
    return 0.5 * (b + b.T)


def add_noise(op: SpaceTimeOperator, spec: NoiseSpec) -> SpaceTimeOperator:
    """Additive Gaussian perturbation with exact relative Frobenius size."""
    if spec.level == 0.0:
        return replace(op, matrix=op.matrix.copy())
    rng = np.random.default_rng(spec.seed)
    noise = rng.standard_normal(op.matrix.shape)
    scale = spec.level * np.linalg.norm(op.matrix) / np.linalg.norm(noise)
    return replace(op, matrix=op.matrix + scale * noise)
