"""Space-time boundary-element solver for interior Neumann heat problems.

The temperature field is represented as a single-layer heat potential over
the region's boundary (one or two closed curves).  Densities are piecewise
constant in time; space is discretized by Nyström collocation at the curve
nodes with trapezoid quadrature.  The Neumann boundary condition becomes a
second-kind Volterra system that is block lower-triangular in time and is
solved by marching: the lag-0 block is LU-factored once, later lags feed
back already-computed density slices.

Collocation in time is at cell midpoints.  With uniform cells this makes
the discrete time reversal t -> T - t exact on the collocation grid, which
the operator layer relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .geometry import TOL_GEOM, BoundaryCurve, points_in_region
from .kernels import (
    dnu_gamma,
    e1_entire_part,
    gamma,
    gamma_time_integral,
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

_FOUR_PI = 4.0 * np.pi


class SolverError(RuntimeError):
    """Boundary-integral system could not be solved reliably."""


@dataclass(frozen=True)
class TimeGrid:
    T: float
    Nt: int

    def __post_init__(self):
        if self.Nt < 4 or self.T <= 0:
            raise ValueError(f"need Nt >= 4 and T > 0, got Nt={self.Nt}, T={self.T}")

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
        return np.repeat(self.curve.weights, self.grid.Nt) * self.grid.dt


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
    _lu: tuple | None = field(default=None, repr=False)
    # trace_at_times window kernels keyed by (component, a, b); entries are
    # read-only, and a racing thread can only store an identical kernel
    _windows: dict = field(default_factory=dict, repr=False)

    @property
    def M_total(self) -> int:
        return self.nodes.shape[0]

    def component_slice(self, index: int) -> slice:
        start = sum(c.M for c in self.curves[:index])
        return slice(start, start + self.curves[index].M)

    def stepping_lu(self):
        if self._lu is None:
            a0 = np.diag(self.sigma * JUMP_COEFF) + self.adjoint[0]
            lu, piv = lu_factor(a0)
            absdiag = np.abs(np.diag(lu))
            if absdiag.min() <= 1e-14 * max(absdiag.max(), 1.0):
                raise SolverError(
                    "singular stepping matrix (diag ratio "
                    f"{absdiag.min() / max(absdiag.max(), 1e-300):.2e}); "
                    "self-term rule suspect"
                )
            self._lu = (lu, piv)
        return self._lu


def _lag_bounds(lag: int, dt: float) -> tuple[float, float]:
    """Retardation window of density cell (m - lag) seen from collocation
    instant tau_m, clipped to positive retardations."""
    b = (lag + COLLOCATION_OFFSET) * dt
    a = max(0.0, (lag - 1 + COLLOCATION_OFFSET) * dt)
    return a, b


def _lag_windows(grid: TimeGrid) -> list:
    """Every lag's window as its own group for window_integrals.  The windows
    telescope: lag l's lower end is the same float as lag l - 1's upper end."""
    return [tuple([v] for v in _lag_bounds(lag, grid.dt)) for lag in range(grid.Nt)]


def _self_half_block(curve: BoundaryCurve, b: float) -> np.ndarray:
    """Single-layer self matrix of one curve over retardations (0, b].

    The time-integrated kernel E1(r^2/(4b))/(4 pi) carries a -log r^2
    factor; the analytic remainder goes through the plain trapezoid rule
    while the periodic log factor uses the spectral circulant weights of
    log_quadrature_weights.  Accurate to the grid's bandwidth even though
    the kernel peak is only O(sqrt(b)) wide.
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


def _self_window_block(curve: BoundaryCurve, a: float, b: float) -> np.ndarray:
    """Single-layer self matrix over the retardation window (a, b]."""
    block = _self_half_block(curve, b)
    if a > 0.0:
        block = block - _self_half_block(curve, a)
    return block


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
    mt = nodes.shape[0]
    dx = nodes[:, None, :] - nodes[None, :, :]
    r2 = dx[..., 0] ** 2 + dx[..., 1] ** 2
    dot_nu = dx[..., 0] * normals[:, None, 0] + dx[..., 1] * normals[:, None, 1]
    r2_safe = r2.copy()
    np.fill_diagonal(r2_safe, 1.0)

    dt = grid.dt
    windows = _lag_windows(grid)
    # spectral self blocks at the window endpoints (l + 1/2) dt, per curve
    halves = [
        [_self_half_block(c, (lag + COLLOCATION_OFFSET) * dt) for lag in range(grid.Nt)]
        for c in curves
    ]
    slices = []
    start = 0
    for c in curves:
        slices.append(slice(start, start + c.M))
        start += c.M

    single = np.empty((grid.Nt, mt, mt))
    adjoint = np.empty((grid.Nt, mt, mt))
    lags = zip(
        range(grid.Nt),
        window_integrals(r2_safe, windows),
        window_integrals(r2_safe, windows, dot_nu),
    )
    for lag, v, k in lags:
        v = v[:, 0, :] * weights[None, :]
        k = k[:, 0, :] * weights[None, :]
        for ci, sl in enumerate(slices):
            if lag == 0:
                v[sl, sl] = halves[ci][0]
            else:
                v[sl, sl] = halves[ci][lag] - halves[ci][lag - 1]
        if lag == 0:
            np.fill_diagonal(k, -weights * curvature / _FOUR_PI)
        else:
            np.fill_diagonal(k, 0.0)
        single[lag] = v
        adjoint[lag] = k
    return RetardedBlocks(curves, grid, nodes, normals, weights, sigma, single, adjoint)


@dataclass
class LayerDensity:
    """Single-layer density over a region's stacked boundary nodes.

    values has shape (M_total, Nt) or (M_total, Nt, R) for R stacked
    right-hand sides.
    """

    region: RetardedBlocks
    values: np.ndarray

    def component(self, index: int) -> np.ndarray:
        return self.values[self.region.component_slice(index)]


def _stack_flux(region: RetardedBlocks, flux) -> np.ndarray:
    """Accept an array over stacked nodes or a list of per-curve fields."""
    if isinstance(flux, np.ndarray):
        values = flux
    else:
        if isinstance(flux, BoundaryField):
            flux = [flux]
        if len(flux) != len(region.curves):
            raise ValueError("one flux field per boundary component required")
        for f, c in zip(flux, region.curves):
            if f.curve is not c:
                raise ValueError("flux field curve does not match region component")
        values = np.concatenate([f.values for f in flux], axis=0)
    if values.shape[:2] != (region.M_total, region.grid.Nt):
        raise ValueError(
            f"flux shape {values.shape} incompatible with "
            f"({region.M_total}, {region.grid.Nt})"
        )
    return np.asarray(values, dtype=float)


def solve_neumann(region: RetardedBlocks, flux) -> LayerDensity:
    """March the second-kind system (sigma/2) rho + K' rho = flux in time.

    flux: stacked (M_total, Nt[, R]) array, a BoundaryField on a one-curve
    region, or a list of BoundaryFields (one per component).  Zero initial
    temperature is built in; zero flux slices produce exactly zero density.
    """
    fvals = _stack_flux(region, flux)
    squeeze = fvals.ndim == 2
    if squeeze:
        fvals = fvals[:, :, None]
    nt = region.grid.Nt
    lu, piv = region.stepping_lu()
    piv = piv.copy()  # getrs shifts pivots in place while it runs: threads must not share them
    adj = region.adjoint
    rho = np.zeros_like(fvals)
    for k in range(nt):
        rhs = fvals[:, k, :].copy()
        for lag in range(1, k + 1):
            rhs -= adj[lag] @ rho[:, k - lag, :]
        rho[:, k, :] = lu_solve((lu, piv), rhs)
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


def _find_component(region: RetardedBlocks, target: BoundaryCurve) -> int | None:
    for i, c in enumerate(region.curves):
        if c is target:
            return i
    return None


def _check_clearance(region: RetardedBlocks, points: np.ndarray) -> None:
    d = points[:, None, :] - region.nodes[None, :, :]
    dist = np.sqrt((d**2).sum(-1))
    if dist.min() <= 10 * TOL_GEOM:
        raise ValueError("evaluation point touches a source curve")


def _offcurve_lag_blocks(region, points, normals=None):
    """Smooth lag kernels from stacked sources to disjoint points.

    With normals given, returns adjoint-double-layer kernels at the target
    normals; otherwise single-layer kernels.  Shape (Nt, P, M_total).
    """
    dx = points[:, None, :] - region.nodes[None, :, :]
    r2 = dx[..., 0] ** 2 + dx[..., 1] ** 2
    dot = None if normals is None else (
        dx[..., 0] * normals[:, None, 0] + dx[..., 1] * normals[:, None, 1]
    )
    w = region.weights[None, :]
    out = np.empty((region.grid.Nt,) + r2.shape)
    for lag, ker in enumerate(window_integrals(r2, _lag_windows(region.grid), dot)):
        out[lag] = ker[:, 0, :] * w
    return out


def _require_single_rhs(density: LayerDensity) -> None:
    if density.values.ndim != 2:
        raise ValueError(
            f"density values have shape {density.values.shape}: a BoundaryField "
            "holds one right-hand side, so pass an (M_total, Nt) density"
        )


def trace_on(density: LayerDensity, target: BoundaryCurve) -> BoundaryField:
    """Temperature trace of the layer potential at target nodes/cells.

    target may be a component of the source region (self terms handled by
    the assembly rules) or any curve with positive clearance from it.
    density must hold one right-hand side, shape (M_total, Nt).
    """
    _require_single_rhs(density)
    region = density.region
    comp = _find_component(region, target)
    if comp is not None:
        rows = region.component_slice(comp)
        vals = _convolve(region.single[:, rows, :], density.values)
    else:
        _check_clearance(region, target.nodes)
        blocks = _offcurve_lag_blocks(region, target.nodes)
        vals = _convolve(blocks, density.values)
    return BoundaryField(target, region.grid, vals)


def normal_derivative_on(density: LayerDensity, target: BoundaryCurve) -> BoundaryField:
    """Normal derivative of the potential on a curve disjoint from sources.

    density must hold one right-hand side, shape (M_total, Nt).
    """
    _require_single_rhs(density)
    region = density.region
    if _find_component(region, target) is not None:
        raise ValueError("normal_derivative_on requires a non-source target curve")
    _check_clearance(region, target.nodes)
    blocks = _offcurve_lag_blocks(region, target.nodes, normals=target.normals)
    vals = _convolve(blocks, density.values)
    return BoundaryField(target, region.grid, vals)


def _eval_windows(region: RetardedBlocks, times: np.ndarray):
    """Per (evaluation time, density cell) retardation windows, clipped."""
    edges = region.grid.edges
    a = np.maximum(0.0, times[:, None] - edges[None, 1:])
    b = np.maximum(0.0, times[:, None] - edges[None, :-1])
    return a, b


def _cell_windows(region: RetardedBlocks, times: np.ndarray):
    """The density cells some evaluation time sees, each with the mask of
    those times, and their windows as one group per cell for
    window_integrals."""
    a, b = _eval_windows(region, times)
    live = b > a
    cells = [(cell, live[:, cell]) for cell in range(region.grid.Nt) if live[:, cell].any()]
    return cells, [(a[m, cell], b[m, cell]) for cell, m in cells]


def potential_at(density: LayerDensity, points: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Potential u(points, times) away from the source curves.

    Returns shape (P, K) or (P, K, R) for stacked densities.
    """
    region = density.region
    points = np.atleast_2d(np.asarray(points, dtype=float))
    times = np.atleast_1d(np.asarray(times, dtype=float))
    _check_clearance(region, points)
    dx = points[:, None, :] - region.nodes[None, :, :]
    r2 = dx[..., 0] ** 2 + dx[..., 1] ** 2
    w = region.weights
    cells, windows = _cell_windows(region, times)
    rho = density.values if density.values.ndim == 3 else density.values[:, :, None]
    out = np.zeros((points.shape[0], times.shape[0], rho.shape[2]))
    for (cell, live), ker in zip(cells, window_integrals(r2, windows)):
        out[:, live, :] += np.tensordot(ker * w, rho[:, cell, :], axes=(2, 0))
    if density.values.ndim == 2:
        out = out[:, :, 0]
    return out


def gradient_at(density: LayerDensity, points: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Spatial gradient of the potential away from sources; (P, 2, K[, R])."""
    region = density.region
    points = np.atleast_2d(np.asarray(points, dtype=float))
    times = np.atleast_1d(np.asarray(times, dtype=float))
    _check_clearance(region, points)
    dx = points[:, None, :] - region.nodes[None, :, :]
    r2 = dx[..., 0] ** 2 + dx[..., 1] ** 2
    w = region.weights
    cells, windows = _cell_windows(region, times)
    rho = density.values if density.values.ndim == 3 else density.values[:, :, None]
    out = np.zeros((points.shape[0], 2, times.shape[0], rho.shape[2]))
    # both axes share each window's exponentials: d runs over dx's components
    axes_dot = np.moveaxis(dx, -1, 0)
    for (cell, live), kers in zip(cells, window_integrals(r2, windows, axes_dot)):
        for axis in range(2):
            out[:, axis][:, live, :] += np.tensordot(kers[axis] * w, rho[:, cell, :], axes=(2, 0))
    if density.values.ndim == 2:
        out = out[:, :, :, 0]
    return out


def trace_at_times(density: LayerDensity, component: int, times: np.ndarray) -> np.ndarray:
    """Trace on a source component at arbitrary (non-collocation) times.

    Self interactions go through the same spectral singular rule as
    assembly, applied per retardation window.  Each window's kernel is
    built once per region and reused by later calls.  Shape (M_comp, K) or
    (M_comp, K, R).
    """
    region = density.region
    times = np.atleast_1d(np.asarray(times, dtype=float))
    curve = region.curves[component]
    rows = region.component_slice(component)
    pts = region.nodes[rows]
    dx = pts[:, None, :] - region.nodes[None, :, :]
    r2 = dx[..., 0] ** 2 + dx[..., 1] ** 2
    self_cols = np.arange(rows.start, rows.stop)
    r2_safe = r2.copy()
    r2_safe[np.arange(pts.shape[0]), self_cols] = 1.0
    a, b = _eval_windows(region, times)
    rho = density.values if density.values.ndim == 3 else density.values[:, :, None]
    out = np.zeros((pts.shape[0], times.shape[0], rho.shape[2]))
    for cell in range(region.grid.Nt):
        for kt in np.nonzero(b[:, cell] > a[:, cell])[0]:
            av, bv = a[kt, cell], b[kt, cell]
            ker = region._windows.get((component, av, bv))
            if ker is None:
                ker = gamma_time_integral(r2_safe, av, bv) * region.weights[None, :]
                ker[:, rows] = _self_window_block(curve, av, bv)
                ker.flags.writeable = False
                region._windows[(component, av, bv)] = ker
            out[:, kt, :] += ker @ rho[:, cell, :]
    if density.values.ndim == 2:
        out = out[:, :, 0]
    return out


def green_probe_trace(
    y,
    s: float,
    omega: BoundaryCurve,
    grid: TimeGrid,
    *,
    region: RetardedBlocks | None = None,
    include_correction: bool = True,
) -> BoundaryField:
    """Boundary trace of the backward Neumann Green function probe.

    Substituting t -> s - t turns the backward Green function with
    space-time pole (y, s) into the forward Neumann Green function of the
    conductor with pole at time zero, so the probe is

        p(x, t) = Gamma(x - y, s - t) + correction(x, s - t),  t < s,

    and 0 for t >= s, with the smooth correction solved as a single-layer
    field whose flux cancels -dnu Gamma(. - y, .) on the outer boundary.
    """
    out = green_probe_traces(
        np.asarray(y, dtype=float)[None, :],
        s,
        omega,
        grid,
        region=region,
        include_correction=include_correction,
    )
    return BoundaryField(omega, grid, out[:, :, 0])


def green_probe_traces(
    points: np.ndarray,
    s: float,
    omega: BoundaryCurve,
    grid: TimeGrid,
    *,
    region: RetardedBlocks | None = None,
    include_correction: bool = True,
) -> np.ndarray:
    """Batched probe traces; returns (M, Nt, P) for P probe points."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if not 0.0 < s <= grid.T:
        raise ValueError(f"probe time s={s} outside (0, T]")
    outside = ~points_in_region(points, omega)
    if np.any(outside):
        raise ValueError(f"probe point {tuple(points[np.argmax(outside)])} outside the conductor")
    if region is None:
        region = assemble_blocks(omega, grid)
    elif region.curves != (omega,):
        raise ValueError("region must be the single-curve conductor system")

    taus = grid.times
    live = taus < s
    out = np.zeros((omega.M, grid.Nt, points.shape[0]))
    if not np.any(live):
        return out
    dx = omega.nodes[:, None, :] - points[None, :, :]
    # free-space pole, evaluated at the retarded collocation instants
    out[:, live, :] = np.transpose(
        gamma(dx[:, :, None, :], (s - taus[live])[None, None, :]), (0, 2, 1)
    )
    if include_correction:
        flux = -dnu_gamma(
            dx[:, :, None, :],
            omega.normals[:, None, None, :],
            taus[None, None, :],
        )
        flux = np.transpose(flux, (0, 2, 1))  # (M, Nt, P)
        rho = solve_neumann(region, flux)
        corr = trace_at_times(rho, 0, s - taus[live])  # (M, K, P)
        out[:, live, :] += corr
    return out
