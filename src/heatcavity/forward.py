"""Space-time boundary-element solver for interior Neumann heat problems.

The temperature field is represented as a single-layer heat potential over
the region's boundary (one or two closed curves).  Densities are piecewise
constant in time; space is discretized by Nyström collocation at the curve
nodes with trapezoid quadrature.  The Neumann boundary condition becomes a
second-kind Volterra system that is block lower-triangular in time and is
solved by marching: the lag-0 block is inverted once, later lags feed
back already-computed density slices.

Collocation in time is at cell midpoints.  With uniform cells this makes
the discrete time reversal t -> T - t exact on the collocation grid, which
the operator layer relies on.

Every retarded kernel, from assembly's blocks to probe traces at off-grid
times, traces on other curves and interior potentials and gradients, is a
stack of lag blocks from _lag_blocks, applied by the lag convolution
_convolve; an evaluation time off the grid shifts the stack's windows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import TOL_GEOM, BoundaryCurve, points_in_region
from .kernels import (
    dnu_gamma,
    e1_entire_part,
    gamma,
    log_quadrature_weights,
    window_integrals,
)

#: Collocation instant inside each time cell, as a fraction of dt.
COLLOCATION_OFFSET = 0.5

#: Scale on the log-singular part of the single-layer self interaction.
#: The correct physical value is 1.0; it is exposed as a module constant so
#: a corrupted value can be injected to confirm the convergence checks react.
SELF_TERM_SCALE = 1.0

#: Jump-relation coefficient of the second-kind boundary equation: the
#: normal-derivative trace of the single layer from the domain side is
#: sigma * JUMP_COEFF * rho + K'rho with sigma = +1 on the outer curve
#: (normal leaves the domain) and -1 on a cavity curve (normal enters it).
JUMP_COEFF = 0.5

#: Smallest reciprocal 1-norm condition number of the lag-0 stepping matrix
#: that solve_neumann accepts.
STEPPING_RCOND_MIN = 1e-14

_FOUR_PI = 4.0 * np.pi


class SolverError(RuntimeError):
    """Boundary-integral system could not be solved reliably."""


@dataclass(frozen=True)
class TimeGrid:
    T: float
    Nt: int

    def __post_init__(self):
        if self.Nt < 4 or not 0.0 < self.T < np.inf:
            raise ValueError(f"need Nt >= 4 and a finite T > 0, got Nt={self.Nt}, T={self.T}")

    @property
    def dt(self) -> float:
        return self.T / self.Nt

    @property
    def times(self) -> np.ndarray:
        """Collocation instants (midpoints of the uniform cells)."""
        return (np.arange(self.Nt) + COLLOCATION_OFFSET) * self.dt

    @property
    def edges(self) -> np.ndarray:
        return np.arange(self.Nt + 1) * self.dt


@dataclass
class BoundaryField:
    """Real function on one curve x time grid, piecewise constant in time."""

    curve: BoundaryCurve
    grid: TimeGrid
    values: np.ndarray  # (M, Nt)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.curve.M, self.grid.Nt):
            raise ValueError(
                f"values shape {self.values.shape} != ({self.curve.M}, {self.grid.Nt})"
            )

    def flatten(self) -> np.ndarray:
        """Coefficients ordered node-major, time fastest: index i*Nt + k."""
        return self.values.reshape(-1)

    @property
    def gram(self) -> np.ndarray:
        """Diagonal weights of the space-time inner product, same ordering."""
        return gram_weights(self.curve, self.grid)


def gram_weights(curve: BoundaryCurve, grid: TimeGrid) -> np.ndarray:
    """Space-time inner-product weights on one curve: arclength weight * dt,
    node-major with time fastest."""
    return np.repeat(curve.weights, grid.Nt) * grid.dt


def field_inner(u: BoundaryField, v: BoundaryField) -> float:
    """Weighted L2 inner product over the space-time boundary cylinder."""
    if u.curve is not v.curve or u.grid != v.grid:
        raise ValueError("fields live on different discretizations")
    return float(np.sum(u.gram * u.flatten() * v.flatten()))


def field_norm(u: BoundaryField) -> float:
    return float(np.sqrt(np.sum(u.gram * u.flatten() ** 2)))


@dataclass
class RetardedBlocks:
    """Dense lag blocks of the time-integrated layer operators on a region.

    curves holds one curve (full conductor) or (outer, cavity); all node
    arrays are stacked outer-first.  single[l] and adjoint[l] are the
    single-layer and adjoint-double-layer blocks for time lag l; sigma is
    the per-node jump sign of the second-kind equation.
    """

    curves: tuple[BoundaryCurve, ...]
    grid: TimeGrid
    nodes: np.ndarray
    normals: np.ndarray
    weights: np.ndarray
    sigma: np.ndarray
    single: np.ndarray   # (Nt, Mt, Mt)
    adjoint: np.ndarray  # (Nt, Mt, Mt)
    _inverse: np.ndarray | None = field(default=None, repr=False)
    # trace_at_times single-layer stacks for off-grid probe times: one
    # read-only stack per s, built once and shared by every probe chunk
    _probe_blocks: dict = field(default_factory=dict, repr=False)

    @property
    def M_total(self) -> int:
        return self.nodes.shape[0]

    def component_slice(self, index: int) -> slice:
        start = sum(c.M for c in self.curves[:index])
        return slice(start, start + self.curves[index].M)

    def stepping_inverse(self) -> np.ndarray:
        """Inverse of the lag-0 stepping matrix (sigma/2) I + K'_0, built once.

        Raises SolverError when the matrix is singular or its 1-norm
        condition number exceeds 1/STEPPING_RCOND_MIN; on well-resolved
        grids it is close to 1.
        """
        if self._inverse is None:
            a0 = np.diag(self.sigma * JUMP_COEFF) + self.adjoint[0]
            try:
                inverse = np.linalg.inv(a0)
                rcond = 1.0 / (np.linalg.norm(a0, 1) * np.linalg.norm(inverse, 1))
            except np.linalg.LinAlgError:
                rcond = 0.0
            if not rcond >= STEPPING_RCOND_MIN:  # also catches a nan rcond
                raise SolverError(
                    f"singular stepping matrix (rcond {rcond:.2e}); self-term rule suspect"
                )
            self._inverse = inverse
        return self._inverse


def _lag_bounds(lag: int, dt: float, offset: float = 0.0) -> tuple[float, float]:
    """Retardation window of density cell (m - lag) seen from the instant
    tau_m + offset * dt, clipped to positive retardations."""
    b = (lag + COLLOCATION_OFFSET + offset) * dt
    a = max(0.0, (lag - 1 + COLLOCATION_OFFSET + offset) * dt)
    return a, b


def _lag_windows(grid: TimeGrid, offset: float = 0.0) -> list:
    """Every lag's (a, b) window.  The windows telescope: lag l's lower end
    is the same float as lag l - 1's upper end, or 0."""
    return [_lag_bounds(lag, grid.dt, offset) for lag in range(grid.Nt)]


def _self_half_block(curve: BoundaryCurve, b: float) -> np.ndarray:
    """Single-layer self matrix of one curve over retardations (0, b].

    The time-integrated kernel E1(r^2/(4b))/(4 pi) carries a -log r^2
    factor; the analytic remainder goes through the plain trapezoid rule
    while the periodic log factor uses the spectral circulant weights of
    log_quadrature_weights.  The kernel peak is O(sqrt(b)) wide: once that is
    small next to the node spacing the rule loses accuracy (on the unit
    circle with 16 nodes, row sums are 2.7 % off at b = 1e-2 and of the
    wrong sign at 1e-3).
    """
    m = curve.M
    h = 2.0 * np.pi / m
    speed = curve.weights / h
    dx = curve.nodes[:, None, :] - curve.nodes[None, :, :]
    r2 = dx[..., 0] ** 2 + dx[..., 1] ** 2
    idx = np.arange(m)
    dth = (idx[:, None] - idx[None, :]) * h
    s2 = 4.0 * np.sin(dth / 2.0) ** 2
    ratio = np.where(s2 > 0, r2 / np.where(s2 > 0, s2, 1.0), speed[None, :] ** 2)
    np.fill_diagonal(ratio, speed**2)
    lmat = np.log(ratio)
    smat = (-np.euler_gamma + np.log(4.0 * b) + e1_entire_part(r2 / (4.0 * b))) / _FOUR_PI
    logw = log_quadrature_weights(m)
    circ = logw[(idx[:, None] - idx[None, :]) % m]
    return curve.weights[None, :] * (smat - lmat / _FOUR_PI) + SELF_TERM_SCALE * (
        -circ * speed[None, :] / _FOUR_PI
    )


def _lag_blocks(targets, sources, weights, grid: TimeGrid, normals=None, offset=0.0) -> np.ndarray:
    """Single-layer, or with target normals adjoint-double-layer, lag kernels
    (Nt, P, M) seen from the collocation instants shifted by offset * dt.
    normals of shape (A, P, 2), or (A, 1, 2) for directions shared by all
    targets, stack A directions per target and give (Nt, A, P, M).  Diagonal entries of targets-is-sources blocks are left to
    the caller's self rule; a window that rounds to empty gives a zero block."""
    dx = targets[:, None, :] - sources[None, :, :]
    r2 = dx[..., 0] ** 2 + dx[..., 1] ** 2
    dot = None if normals is None else (
        dx[..., 0] * normals[..., None, 0] + dx[..., 1] * normals[..., None, 1]
    )
    if targets is sources:
        np.fill_diagonal(r2, 1.0)
    windows = _lag_windows(grid, offset)
    live = [lag for lag, (a, b) in enumerate(windows) if b > a]
    out = np.zeros((grid.Nt,) + (r2 if dot is None else dot).shape)
    for lag, ker in zip(live, window_integrals(r2, [windows[lag] for lag in live], dot)):
        out[lag] = ker * weights
    return out


def _single_blocks(curves, grid: TimeGrid, offset: float = 0.0) -> np.ndarray:
    """Single-layer lag blocks seen from the collocation instants shifted by
    offset * dt; shape (Nt, Mt, Mt).  offset 0 gives assembly's blocks.

    Cross-node entries come from _lag_blocks; each curve's self block is
    _self_half_block at the window's upper end, less its value at a
    positive lower end.
    """
    nodes = np.concatenate([c.nodes for c in curves])
    weights = np.concatenate([c.weights for c in curves])
    out = _lag_blocks(nodes, nodes, weights, grid, offset=offset)
    ends = np.cumsum([0] + [c.M for c in curves])
    halves = [{} for _ in curves]  # per curve: window endpoint -> half block
    for lag, (a, b) in enumerate(_lag_windows(grid, offset)):
        if not b > a:
            continue
        for c, half, lo, hi in zip(curves, halves, ends, ends[1:]):
            for u in (a, b):
                if u > 0.0 and u not in half:
                    half[u] = _self_half_block(c, u)
            out[lag, lo:hi, lo:hi] = half[b] - half[a] if a > 0.0 else half[b]
    return out


def assemble_blocks(curves, grid: TimeGrid) -> RetardedBlocks:
    """Assemble all time-lag blocks for a one- or two-curve region."""
    if isinstance(curves, BoundaryCurve):
        curves = (curves,)
    curves = tuple(curves)
    if len(curves) not in (1, 2):
        raise ValueError("region has one boundary curve or (outer, cavity)")
    if len(curves) == 2:
        outer, cavity = curves
        if not points_in_region(cavity.nodes, outer).all():
            raise ValueError("cavity curve is not inside the outer curve")
        d = outer.nodes[:, None, :] - cavity.nodes[None, :, :]
        gap = np.sqrt((d**2).sum(-1)).min()
        if gap <= 10 * TOL_GEOM:
            raise ValueError("outer and cavity curves overlap")

    nodes = np.concatenate([c.nodes for c in curves])
    normals = np.concatenate([c.normals for c in curves])
    weights = np.concatenate([c.weights for c in curves])
    curvature = np.concatenate([c.curvature for c in curves])
    sigma = np.concatenate(
        [np.full(c.M, 1.0 if i == 0 else -1.0) for i, c in enumerate(curves)]
    )
    adjoint = _lag_blocks(nodes, nodes, weights, grid, normals)
    for lag, k in enumerate(adjoint):
        np.fill_diagonal(k, -weights * curvature / _FOUR_PI if lag == 0 else 0.0)
    single = _single_blocks(curves, grid)
    return RetardedBlocks(curves, grid, nodes, normals, weights, sigma, single, adjoint)


@dataclass
class LayerDensity:
    """Single-layer density over a region's stacked boundary nodes.

    values has shape (M_total, Nt) or (M_total, Nt, R) for R stacked
    right-hand sides.
    """

    region: RetardedBlocks
    values: np.ndarray


def solve_neumann(region: RetardedBlocks, flux: np.ndarray) -> LayerDensity:
    """March the second-kind system (sigma/2) rho + K' rho = flux in time.

    flux: (M_total, Nt[, R]) array over the region's stacked nodes, outer
    curve first.  Zero initial temperature is built in; zero flux slices
    produce exactly zero density.
    """
    fvals = np.asarray(flux, dtype=float)
    if fvals.shape[:2] != (region.M_total, region.grid.Nt):
        raise ValueError(
            f"flux shape {fvals.shape} incompatible with "
            f"({region.M_total}, {region.grid.Nt})"
        )
    squeeze = fvals.ndim == 2
    if squeeze:
        fvals = fvals[:, :, None]
    nt = region.grid.Nt
    inverse = region.stepping_inverse()
    adj = region.adjoint
    rho = np.zeros_like(fvals)
    for k in range(nt):
        rhs = fvals[:, k, :].copy()
        for lag in range(1, k + 1):
            rhs -= adj[lag] @ rho[:, k - lag, :]
        rho[:, k, :] = inverse @ rhs
    if squeeze:
        rho = rho[:, :, 0]
    return LayerDensity(region, rho)


def _convolve(blocks: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Causal lag convolution sum_l blocks[l] @ rho[:, k - l]."""
    nt = rho.shape[1]
    out = np.zeros((blocks.shape[1],) + rho.shape[1:])
    for lag in range(nt):
        contrib = np.tensordot(blocks[lag], rho[:, : nt - lag], axes=(1, 0))
        out[:, lag:] += contrib
    return out


def _off_curve_blocks(region: RetardedBlocks, points, normals=None, offset=0.0) -> np.ndarray:
    """_lag_blocks of the region's layer at points with clearance from its
    nodes; a point within 10 TOL_GEOM of a node raises ValueError."""
    d = points[:, None, :] - region.nodes[None, :, :]
    if np.sqrt((d**2).sum(-1)).min() <= 10 * TOL_GEOM:
        raise ValueError("evaluation point touches a source curve")
    return _lag_blocks(points, region.nodes, region.weights, region.grid, normals, offset)


def _require_single_rhs(density: LayerDensity) -> None:
    if density.values.ndim != 2:
        raise ValueError(
            f"density values have shape {density.values.shape}: a BoundaryField "
            "holds one right-hand side, so pass an (M_total, Nt) density"
        )


def _trace_values(density: LayerDensity, target: BoundaryCurve, normal=False) -> np.ndarray:
    """Trace, or with normal the normal derivative, of the layer potential at
    target's nodes and time cells; shape (M_tgt, Nt[, R]).

    The one place that picks lag blocks: a source component reads its rows of
    the assembled single-layer blocks (self terms by the assembly rules), any
    other curve needs clearance from the sources and gets off-curve blocks.
    """
    region = density.region
    comp = next((i for i, c in enumerate(region.curves) if c is target), None)
    if comp is not None:
        if normal:
            raise ValueError("normal_derivative_on requires a non-source target curve")
        blocks = region.single[:, region.component_slice(comp), :]
    else:
        blocks = _off_curve_blocks(region, target.nodes, target.normals if normal else None)
    return _convolve(blocks, density.values)


def trace_on(density: LayerDensity, target: BoundaryCurve) -> BoundaryField:
    """Temperature trace of the layer potential at target nodes/cells.

    target may be a component of the source region (self terms handled by
    the assembly rules) or any curve with positive clearance from it.
    density must hold one right-hand side, shape (M_total, Nt).
    """
    _require_single_rhs(density)
    return BoundaryField(target, density.region.grid, _trace_values(density, target))


def normal_derivative_on(density: LayerDensity, target: BoundaryCurve) -> BoundaryField:
    """Normal derivative of the potential on a curve disjoint from sources.

    density must hold one right-hand side, shape (M_total, Nt).
    """
    _require_single_rhs(density)
    return BoundaryField(target, density.region.grid, _trace_values(density, target, normal=True))


def _field_at(density: LayerDensity, points, times, gradient: bool) -> np.ndarray:
    """Potential (P, K[, R]), or with gradient its spatial gradient
    (P, 2, K[, R]), at points away from the source curves.

    A time t in the cell (e_k, e_k+1], k clipped to the grid, is the instant
    tau_k shifted by theta = (t - tau_k) / dt, exactly 0 on the grid: its
    value is column k of the lag convolution of off-curve blocks whose
    windows are shifted by theta.  One block stack serves each distinct theta.
    """
    region = density.region
    grid = region.grid
    points = np.atleast_2d(np.asarray(points, dtype=float))
    times = np.atleast_1d(np.asarray(times, dtype=float))
    k = np.clip(np.searchsorted(grid.edges, times) - 1, 0, grid.Nt - 1)
    theta = (times - grid.times[k]) / grid.dt
    # the gradient's two axes as stacked "normals" share each endpoint's exp
    axes = np.eye(2)[:, None, :] if gradient else None
    out = np.zeros(((2 if gradient else 1) * points.shape[0], times.size) + density.values.shape[2:])
    for th in np.unique(theta):
        cols = theta == th
        stack = _off_curve_blocks(region, points, axes, float(th))
        rows = _convolve(stack.reshape(grid.Nt, -1, region.M_total), density.values)
        out[:, cols] = rows[:, k[cols]]
    return np.moveaxis(out.reshape((2, -1) + out.shape[1:]), 0, 1) if gradient else out


def potential_at(density: LayerDensity, points: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Potential u(points, times) away from the source curves.

    Returns shape (P, K) or (P, K, R) for stacked densities.
    """
    return _field_at(density, points, times, gradient=False)


def gradient_at(density: LayerDensity, points: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Spatial gradient of the potential away from sources; (P, 2, K[, R])."""
    return _field_at(density, points, times, gradient=True)


def trace_at_times(density: LayerDensity, component: int, s: float) -> np.ndarray:
    """Trace on a source component at the times s - tau_k, one per live
    collocation instant tau_k < s.  Shape (M_comp, n0) or (M_comp, n0, R).

    With n0 live instants and theta = s/dt - n0, the time s - tau_k is the
    instant tau_m, m = n0 - 1 - k, shifted by theta * dt: the trace is the
    lag convolution of single-layer blocks whose windows are shifted by
    theta, read backwards.  On-grid s (theta == 0) uses the assembled
    blocks; any other s builds its stack once per region.
    """
    region = density.region
    n0 = int(np.count_nonzero(region.grid.times < s))
    # theta lies in (-1/2, 1/2] but for rounding; above 1/2 it would give
    # lag 0 a window with a sliver of a lower end, where the self rule fails
    theta = min(s / region.grid.dt - n0, 0.5)
    if n0 == 0 or theta == 0.0:
        stack = region.single
    else:
        stack = region._probe_blocks.get(s)
        if stack is None:
            stack = _single_blocks(region.curves, region.grid, theta)
            stack.flags.writeable = False
            region._probe_blocks[s] = stack
    rows = region.component_slice(component)
    return _convolve(stack[:n0, rows, :], density.values[:, :n0])[:, ::-1]


def green_probe_trace(
    y,
    s: float,
    omega: BoundaryCurve,
    grid: TimeGrid,
    *,
    region: RetardedBlocks | None = None,
) -> BoundaryField:
    """Boundary trace of the backward Neumann Green function probe.

    Substituting t -> s - t turns the backward Green function with
    space-time pole (y, s) into the forward Neumann Green function of the
    conductor with pole at time zero, so the probe is

        p(x, t) = Gamma(x - y, s - t) + correction(x, s - t),  t < s,

    and 0 for t >= s, with the smooth correction solved as a single-layer
    field whose flux cancels -dnu Gamma(. - y, .) on the outer boundary.
    """
    out = green_probe_traces(np.asarray(y, dtype=float)[None, :], s, omega, grid, region=region)
    return BoundaryField(omega, grid, out[:, :, 0])


def green_probe_traces(
    points: np.ndarray,
    s,
    omega: BoundaryCurve,
    grid: TimeGrid,
    *,
    region: RetardedBlocks | None = None,
) -> np.ndarray:
    """Batched probe traces for P points and the probe times s (a scalar or
    S values); returns (M, Nt, S * P), column j * P + p for (s[j], point p).

    The correction flux does not depend on s, so one Neumann solve serves
    every probe time.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    svals = np.atleast_1d(np.asarray(s, dtype=float))
    for sv in svals:
        if not 0.0 < sv <= grid.T:
            raise ValueError(f"probe time s={sv} outside (0, T]")
    outside = ~points_in_region(points, omega)
    if np.any(outside):
        raise ValueError(f"probe point {tuple(points[np.argmax(outside)])} outside the conductor")
    if region is None:
        region = assemble_blocks(omega, grid)
    elif len(region.curves) != 1 or region.curves[0] is not omega:
        raise ValueError("region must be the single-curve conductor system")
    elif region.grid != grid:
        raise ValueError(f"region was assembled on {region.grid}, not on {grid}")

    taus = grid.times
    npts = points.shape[0]
    out = np.zeros((omega.M, grid.Nt, svals.size * npts))
    dx = omega.nodes[:, None, :] - points[None, :, :]
    rho = None
    if np.any(taus < svals.max()):
        flux = -dnu_gamma(
            dx[:, :, None, :],
            omega.normals[:, None, None, :],
            taus[None, None, :],
        )
        rho = solve_neumann(region, np.transpose(flux, (0, 2, 1)))  # (M, Nt, P)
    for j, sv in enumerate(svals):
        live = taus < sv
        cols = slice(j * npts, (j + 1) * npts)
        # free-space pole, evaluated at the retarded collocation instants
        out[:, live, cols] = np.transpose(
            gamma(dx[:, :, None, :], (sv - taus[live])[None, None, :]), (0, 2, 1)
        )
        if rho is not None:
            out[:, live, cols] += trace_at_times(rho, 0, float(sv))
    return out
