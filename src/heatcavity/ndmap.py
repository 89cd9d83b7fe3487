"""Dense space-time matrices for the boundary operators of the method.

Every operator acts on coefficient vectors over the basis "value at node i,
time cell k", flattened node-major with time fastest (index i*Nt + k).  The
discrete inner product on a boundary cylinder is the diagonal Gram
w_{i,k} = arclength_weight_i * dt, and duals/adjoints below are always
taken with respect to it.

The flux-to-temperature maps are block-Toeplitz in time (the underlying
problems are autonomous), so each one is determined by its impulse
responses: M impulse solves, one per source node, all with flux
concentrated in time cell 0, give a (M_tgt, Nt, M_src) stack whose lag-a
slice is the map's block on the a-th causal diagonal: ProblemSetup.responses
holds every map's stack, and FLUX_MAPS names each map's source and target
curve by its key.  _flux_map expands a stack into the map's dense matrix
(the assemble_* functions), apply convolves it with a field on the source
curve, and N is composed from the stacks of FL and Lhat (see compose_N).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .forward import (
    BoundaryField,
    LayerDensity,
    RetardedBlocks,
    TimeGrid,
    _convolve,
    _trace_values,
    assemble_blocks,
    gram_weights,
    solve_neumann,
)
from .geometry import BoundaryCurve


@dataclass
class SpaceTimeOperator:
    """Dense operator between boundary-cylinder coefficient spaces, with
    the Gram weights of its domain and codomain."""

    matrix: np.ndarray
    gram_domain: np.ndarray
    gram_codomain: np.ndarray

    def __post_init__(self):
        n_c, n_d = self.matrix.shape
        if self.gram_codomain.shape != (n_c,) or self.gram_domain.shape != (n_d,):
            raise ValueError("gram weight lengths do not match the matrix")
        for g in (self.gram_domain, self.gram_codomain):
            if not np.all((g > 0) & (g < np.inf)):  # nan fails both
                raise ValueError("gram weights must be strictly positive and finite")


@dataclass(frozen=True)
class NoiseSpec:
    level: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.level < 1.0:
            raise ValueError(f"noise level must be in [0, 1), got {self.level}")
        if self.seed < 0:
            raise ValueError(f"noise seed must be >= 0, got {self.seed}")


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

    @cached_property
    def responses(self) -> dict[str, np.ndarray]:
        """Impulse responses (M_tgt, Nt, M_src) of the flux maps, keyed as in
        FLUX_MAPS; without a cavity only lambda_0.  One impulse solve set per
        flux source, traced on every curve a map reads: outer flux on the
        conductor gives lambda_0 and FL, outer flux on the region with the
        cavity lambda_D and L, cavity flux Lhat."""
        omega, cavity = self.omega, self.cavity
        density = _density(self.omega_system, 0)
        table = {"lambda_0": _trace_values(density, omega)}
        if cavity is None:
            return table
        table["FL"] = -_trace_values(density, cavity, normal=True)
        density = _density(self.cavity_system, 0)
        table["lambda_D"] = _trace_values(density, omega)
        table["L"] = _trace_values(density, cavity)
        density = _density(self.cavity_system, 1)
        table["Lhat"] = _trace_values(density, omega)
        return table


def _toeplitz_expand(resp: np.ndarray) -> np.ndarray:
    """Expand impulse responses (M_tgt, Nt, M_src) along causal diagonals.

    Entry ((i, k), (j, l)) of the result is resp[i, k - l, j] for k >= l and
    0 otherwise.  With Nt - 1 zero lags padded in front, the reversed
    sliding windows of length Nt along the time axis are exactly the rows of
    that layout, so one copy out of the window view fills the matrix.
    """
    m_tgt, nt, m_src = resp.shape
    padded = np.concatenate([np.zeros((m_tgt, max(nt - 1, 0), m_src)), resp], axis=1)
    # windows[i, k, j, w] = padded[i, k + w, j]; w = Nt-1-l reads lag k - l
    windows = np.lib.stride_tricks.sliding_window_view(padded, nt, axis=1)
    return windows[..., ::-1].reshape(m_tgt * nt, m_src * nt)


def _operator(
    matrix: np.ndarray, domain: BoundaryCurve, codomain: BoundaryCurve, grid: TimeGrid
) -> SpaceTimeOperator:
    """Operator between two curves' coefficient spaces on grid."""
    return SpaceTimeOperator(matrix, gram_weights(domain, grid), gram_weights(codomain, grid))


def _density(region: RetardedBlocks, source: int) -> LayerDensity:
    """Density of the impulse solves on region component source: one
    right-hand side per source node, flux 1 in time cell 0 there and zero
    flux on the other component."""
    m = region.curves[source].M
    flux = np.zeros((region.M_total, region.grid.Nt, m))
    flux[region.component_slice(source).start + np.arange(m), 0, np.arange(m)] = 1.0
    return solve_neumann(region, flux)


#: Source and target curve (ProblemSetup attributes) of each flux map, by response key.
FLUX_MAPS = {
    "lambda_0": ("omega", "omega"),
    "lambda_D": ("omega", "omega"),
    "L": ("omega", "cavity"),
    "Lhat": ("cavity", "omega"),
    "FL": ("omega", "cavity"),
}


def _ends(setup: ProblemSetup, name: str) -> tuple[BoundaryCurve, BoundaryCurve]:
    """Source and target curve of flux map name; only lambda_0 needs no cavity."""
    if name != "lambda_0" and setup.cavity is None:
        raise ValueError(f"{name} requires a cavity in the geometry")
    return tuple(getattr(setup, end) for end in FLUX_MAPS[name])


def _flux_map(setup: ProblemSetup, name: str) -> SpaceTimeOperator:
    """Dense operator of flux map name: its impulse responses expanded."""
    source, target = _ends(setup, name)
    return _operator(_toeplitz_expand(setup.responses[name]), source, target, setup.grid)


def apply(setup: ProblemSetup, name: str, field: BoundaryField) -> BoundaryField:
    """Flux map name applied to a field on its source curve and the setup's
    grid (ValueError for any other), by lag convolution with its responses."""
    source, target = _ends(setup, name)
    if field.curve is not source or field.grid != setup.grid:
        raise ValueError(f"{name} applies to fields on {FLUX_MAPS[name][0]} over {setup.grid}")
    values = _convolve(setup.responses[name].transpose(1, 0, 2), field.values)
    return BoundaryField(target, setup.grid, values)


def assemble_lambda(setup: ProblemSetup, with_cavity: bool) -> SpaceTimeOperator:
    """Flux-to-temperature map on the outer boundary (with or without D)."""
    return _flux_map(setup, "lambda_D" if with_cavity else "lambda_0")


def assemble_L(setup: ProblemSetup) -> SpaceTimeOperator:
    """Outer flux to cavity-boundary temperature (virtual measurement)."""
    return _flux_map(setup, "L")


def assemble_Lhat(setup: ProblemSetup) -> SpaceTimeOperator:
    """Cavity flux to outer-boundary temperature (back projection)."""
    return _flux_map(setup, "Lhat")


def assemble_FL(setup: ProblemSetup) -> SpaceTimeOperator:
    """Composite transmission map: outer flux phi to -dnu u0 on the cavity.

    u0 is the cavity-free conductor solution driven by phi; its negated
    normal flux through the (virtual) cavity boundary is exactly the
    transmission operator applied to the virtual measurement of phi, so
    the composite needs no transmission solver.
    """
    return _flux_map(setup, "FL")


def n_responses(setup: ProblemSetup) -> tuple[np.ndarray, np.ndarray]:
    """The impulse responses f of FL and h of Lhat that N is composed from;
    without a cavity both stacks are empty (M_c = 0) and no solve runs."""
    if setup.cavity is None:
        m, nt = setup.omega.M, setup.grid.Nt
        return np.zeros((0, nt, m)), np.zeros((m, nt, 0))
    return setup.responses["FL"], setup.responses["Lhat"]


def assemble_N(setup: ProblemSetup) -> SpaceTimeOperator:
    """Modified flux-to-temperature map N on the outer boundary.

    N phi = R[ Lhat( R( FL phi ) ) ] with R the time reversal; this equals
    the backward-projected composition L'(-F)L without ever inverting the
    auxiliary bridge operator.  Without a cavity, N = 0 identically.
    """
    return compose_N(setup.omega, setup.grid, *n_responses(setup))


def compose_N(
    omega: BoundaryCurve, grid: TimeGrid, f: np.ndarray, h: np.ndarray
) -> SpaceTimeOperator:
    """N = R Lhat R FL on omega from the impulse responses f of FL, shape
    (M_c, Nt, M), and h of Lhat, shape (M, Nt, M_c); neither map is expanded,
    and no lag block is needed.  Empty stacks (M_c = 0) give N = 0.

    Entry ((i, k), (j, l)) of N is the sum over cells m >= max(k, l) of
    h[i, m-k, :] @ f[:, m-l, j].  In reversed cells a = Nt-1-k, b = Nt-1-l
    that is the displacement recursion Q(a, b) = h(a) f(b) + Q(a-1, b-1)
    with N[(i,k),(j,l)] = Q_ij(a, b) (Kailath & Sayed, SIAM Rev. 37, 1995).
    One (M Nt x M_c)(M_c x M Nt) product forms every term
    P[i, k, j, l] = h[i, Nt-1-k, :] @ f[:, Nt-1-l, j], already in N's
    node-major layout; N[:, k, :, :-1] += N[:, k+1, :, 1:] then accumulates
    the diagonals in place from the last cell back: Nt times fewer flops
    than the dense product, and no second n x n array.
    """
    m, nt, m_c = h.shape
    h_rev = h[:, ::-1, :].reshape(m * nt, m_c)
    f_rev = f[:, ::-1, :].transpose(0, 2, 1).reshape(m_c, m * nt)
    mat = h_rev @ f_rev
    cells = mat.reshape(m, nt, m, nt)
    for k in range(nt - 2, -1, -1):
        cells[:, k, :, :-1] += cells[:, k + 1, :, 1:]
    return _operator(mat, omega, omega, grid)


def time_reversal(field: BoundaryField) -> BoundaryField:
    """Reverse the time cells of a field."""
    return BoundaryField(field.curve, field.grid, field.values[:, ::-1].copy())


def apply_Lprime(setup: ProblemSetup, theta: BoundaryField) -> BoundaryField:
    """Backward-in-time back projection via the time-reversal reduction.

    Substituting t -> T - t turns the terminal-value backward problem into
    the forward cavity-flux problem with reversed data, so
    L' theta = -R[ Lhat(R theta) ].
    """
    out = time_reversal(apply(setup, "Lhat", time_reversal(theta)))
    out.values = -out.values
    return out


#: Side of the square tiles that symmetrize and the in-place eigensolver
#: walk: an n x n pass then needs a few TILE x TILE temporaries, not n x n ones.
TILE = 256


def _tile_pairs(n: int):
    """Yield (I, J) slices over the TILE x TILE tiles of an n x n array on
    and above the tile diagonal, row by row."""
    cuts = [slice(lo, min(lo + TILE, n)) for lo in range(0, n, TILE)]
    for k, rows in enumerate(cuts):
        for cols in cuts[k:]:
            yield rows, cols


def symmetrize(N_op: SpaceTimeOperator) -> tuple[np.ndarray, float]:
    """Exactly symmetric S = G^{1/2} Ntilde G^{-1/2}, similar to the symmetrized
    N, and N's symmetry defect ||N - N'|| / ||N|| in the Gram norm.

    Ntilde = (N + N')/2 with N' the Gram-weighted transpose (the
    coefficient-space Riesz maps are taken as the identity); S has its
    spectrum in the weighted inner product, and Ntilde is never formed.
    With b = G^{1/2} N G^{-1/2}, S = (b + b.T)/2 and the defect is
    ||b - b.T||_F / ||b||_F, twice the relative size of the part N - Ntilde
    that S discards, 0 for a zero operator.  One walk over the tile pairs
    of b fills S and sums the defect: S is the only n x n array made.
    """
    mat = N_op.matrix
    if mat.shape[0] != mat.shape[1]:
        raise ValueError("symmetrization needs a square operator")
    sqrt_g = np.sqrt(N_op.gram_domain)
    S = np.empty(mat.shape)
    skew2 = norm2 = 0.0
    for rows, cols in _tile_pairs(len(sqrt_g)):
        b_rc = mat[rows, cols] * (sqrt_g[rows, None] / sqrt_g[None, cols])
        b_cr = mat[cols, rows] * (sqrt_g[cols, None] / sqrt_g[None, rows])
        S[rows, cols] = 0.5 * (b_rc + b_cr.T)
        if rows != cols:
            S[cols, rows] = S[rows, cols].T
        # on the diagonal b_cr is b_rc, and the pair is counted once
        weight = 1.0 if rows == cols else 2.0
        d = b_rc - b_cr.T
        skew2 += weight * np.vdot(d, d)
        norm2 += 0.5 * weight * (np.vdot(b_rc, b_rc) + np.vdot(b_cr, b_cr))
    return S, float(np.sqrt(skew2 / norm2)) if norm2 > 0 else 0.0


def add_noise(op: SpaceTimeOperator, spec: NoiseSpec) -> SpaceTimeOperator:
    """Additive Gaussian perturbation with exact relative Frobenius size."""
    if spec.level == 0.0:
        return replace(op, matrix=op.matrix.copy())
    rng = np.random.default_rng(spec.seed)
    noise = rng.standard_normal(op.matrix.shape)
    scale = spec.level * np.linalg.norm(op.matrix) / np.linalg.norm(noise)
    # scale * noise + matrix in the draw's buffer: the bits of matrix + scale * noise
    noise *= scale
    noise += op.matrix
    return replace(op, matrix=noise)
