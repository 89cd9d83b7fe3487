"""Spectral range test: eigendecomposition of the symmetrized data operator
and the reciprocal-Picard-series indicator evaluated over a sampling grid.

The indicator at a space-time point (y, s) is

    W(y, s) = [ sum_{n <= n*} |<p, psi_n>_W|^2 / lambda_n ]^{-1}

with p the W-normalized probe trace for (y, s) and (lambda_n, psi_n) the
retained eigenpairs.  Points inside the cavity give a series that stays
bounded under refinement (finite W); outside it the series blows up and W
collapses toward zero, so thresholding the normalized grid recovers the
cavity region.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .forward import (
    BoundaryField,
    RetardedBlocks,
    TimeGrid,
    assemble_blocks,
    green_probe_traces,
)
from .geometry import TOL_GEOM, BoundaryCurve, signed_distance

#: Sum values at or below this are treated as "probe orthogonal to the
#: retained span" and reported as an infinite indicator.
SUM_FLOOR = 1e-300

#: Probe points are evaluated in fixed-size batches so that results do not
#: depend on how batches are scheduled across workers.
PROBE_CHUNK = 64


@dataclass
class EigenSystem:
    """Descending eigenpairs of the symmetrized operator in the W-product.

    vectors holds one W-orthonormal coefficient vector per column (all of
    them, not only the retained head); retained counts the leading columns
    that survive the relative cutoff.
    """

    lambdas: np.ndarray
    vectors: np.ndarray
    retained: int
    gram: np.ndarray

    @property
    def retained_lambdas(self) -> np.ndarray:
        return self.lambdas[: self.retained]

    @property
    def retained_vectors(self) -> np.ndarray:
        return self.vectors[:, : self.retained]


@dataclass(frozen=True)
class ProbePoint:
    y: tuple[float, float]
    s: float


@dataclass(frozen=True)
class SamplingSpec:
    """Rectangular sampling lattice over the conductor's bounding box.

    margin is the minimum clearance kept from the outer boundary; None
    selects twice the outer node spacing.
    """

    nx: int = 21
    ny: int = 21
    s_slices: int = 1
    margin: float | None = None

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1 or self.s_slices < 1:
            raise ValueError("sampling grid sizes must be positive")
        if self.margin is not None and self.margin < 0:
            raise ValueError("sampling margin must be nonnegative")


@dataclass
class IndicatorGrid:
    points: list[ProbePoint]
    values: np.ndarray
    normalized: np.ndarray
    mask: np.ndarray
    truth: np.ndarray

    def __len__(self) -> int:
        return len(self.points)


def eigendecompose(S: np.ndarray, gram: np.ndarray, tau: float) -> EigenSystem:
    """Full symmetric eigendecomposition with a relative spectral cutoff.

    Eigenvectors are returned as W-orthonormal coefficient vectors
    (columns), i.e. the orthonormal eigenvectors of S scaled back by
    G^{-1/2}.  Retained pairs are those with lambda_n >= tau * lambda_1
    and lambda_n > 0; trailing pairs are kept for diagnostics but excluded
    from the indicator series.
    """
    S = np.asarray(S, dtype=float)
    gram = np.asarray(gram, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError("S must be a square matrix")
    norm = np.linalg.norm(S)
    if norm > 0 and np.linalg.norm(S - S.T) > 1e-10 * norm:
        raise ValueError("S is not symmetric to the required tolerance")
    if not 0.0 < tau < 1.0:
        raise ValueError(f"cutoff ratio must be in (0, 1), got {tau}")
    if gram.shape != (S.shape[0],) or np.any(gram <= 0):
        raise ValueError("gram must be a positive weight vector matching S")

    lam, vec = np.linalg.eigh(S)
    lam = lam[::-1]
    vec = vec[:, ::-1]
    if lam[0] <= 0:
        raise ValueError("operator not positive — check symmetrization/noise level")
    retained = int(np.sum((lam >= tau * lam[0]) & (lam > 0)))
    vectors = vec / np.sqrt(gram)[:, None]
    return EigenSystem(lam, vectors, retained, gram)


def _normalized_probe_matrix(eig: EigenSystem, probes: np.ndarray) -> np.ndarray:
    """W-normalize probe columns; all-zero probes become NaN columns."""
    g = eig.gram
    norms = np.sqrt(np.sum(g[:, None] * probes**2, axis=0))
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(norms[None, :] > 0, probes / norms[None, :], np.nan)


def _picard_sums(eig: EigenSystem, probes: np.ndarray) -> np.ndarray:
    """Retained Picard series sums for W-normalized probe columns."""
    coeff = eig.retained_vectors.T @ (eig.gram[:, None] * probes)
    return np.sum(coeff**2 / eig.retained_lambdas[:, None], axis=0)


def picard_indicator(eig: EigenSystem, probe: BoundaryField) -> float:
    """Reciprocal Picard series for one probe; np.inf when out of reach.

    The probe is W-normalized first, making the value scale-free; a probe
    orthogonal to the retained span (including the zero probe) yields the
    infinite sentinel.
    """
    if eig.retained < 1:
        raise ValueError("eigensystem has no retained pairs")
    vec = probe.flatten()[:, None]
    vec = _normalized_probe_matrix(eig, vec)
    if np.any(np.isnan(vec)):
        return np.inf
    total = float(_picard_sums(eig, vec)[0])
    if total <= SUM_FLOOR:
        return np.inf
    return 1.0 / total


def picard_partial_sums(eig: EigenSystem, probe: BoundaryField) -> np.ndarray:
    """Cumulative Picard sums over the retained pairs (diagnostic curve).

    Interior points show partial sums that level off within the retained
    range; exterior points keep growing by roughly constant factors per
    eigenvalue decade, which is the practical face of the range dichotomy.
    """
    vec = _normalized_probe_matrix(eig, probe.flatten()[:, None])
    if np.any(np.isnan(vec)):
        return np.zeros(eig.retained)
    coeff = eig.retained_vectors.T @ (eig.gram[:, None] * vec)
    return np.cumsum(coeff[:, 0] ** 2 / eig.retained_lambdas)


def sampling_points(omega: BoundaryCurve, spec: SamplingSpec) -> tuple[np.ndarray, float]:
    """Lattice points inside the conductor with the requested margin.

    The nx-by-ny lattice spans the bounding box of the outer boundary
    nodes; points outside the conductor, on it or closer to it than the
    margin are dropped.  Returns the kept points and the margin used.
    """
    margin = spec.margin
    if margin is None:
        margin = 2.0 * omega.perimeter / omega.M
    lo = omega.nodes.min(axis=0)
    hi = omega.nodes.max(axis=0)
    xs = np.linspace(lo[0], hi[0], spec.nx)
    ys = np.linspace(lo[1], hi[1], spec.ny)
    pts = np.stack(np.meshgrid(xs, ys), -1).reshape(-1, 2)
    d = signed_distance(omega.spec, pts)
    return pts[(d <= -TOL_GEOM) & (-d >= margin)], margin


def slice_times(grid: TimeGrid, s_slices: int) -> np.ndarray:
    """Evenly spaced interior sampling times: s_j = T j/(slices+1)."""
    return grid.T * np.arange(1, s_slices + 1) / (s_slices + 1)


def reconstruct(
    eig: EigenSystem,
    omega: BoundaryCurve,
    grid: TimeGrid,
    sampling: SamplingSpec,
    threshold: float,
    cavity: BoundaryCurve | None = None,
    region: RetardedBlocks | None = None,
    chunk_map=map,
) -> IndicatorGrid:
    """Indicator values, normalized grid, and mask over the sampling grid.

    Points on the cavity boundary (within the geometric tolerance) are
    excluded.  Values are normalized by the largest finite value over the
    whole grid; infinite sentinels map to 1.  chunk_map may be replaced by
    a parallel map over probe batches — batches are fixed-size, so results
    are identical no matter how they are scheduled.
    """
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    pts, _ = sampling_points(omega, sampling)
    inside = np.zeros(len(pts), dtype=bool)
    if cavity is not None:
        d = signed_distance(cavity.spec, pts)
        clear = np.abs(d) > TOL_GEOM
        pts, inside = pts[clear], d[clear] < 0
    svals = slice_times(grid, sampling.s_slices)
    points = [ProbePoint((float(p[0]), float(p[1])), float(s)) for s in svals for p in pts]
    if not points:
        raise ValueError("sampling grid contains no admissible probe points")
    if region is None:
        region = assemble_blocks(omega, grid)

    jobs = [pts[lo : lo + PROBE_CHUNK] for lo in range(0, len(pts), PROBE_CHUNK)]

    def run_chunk(chunk_pts):
        # one Neumann solve per chunk serves every sampling time
        traces = green_probe_traces(chunk_pts, svals, omega, grid, region=region)
        probes = traces.reshape(omega.M * grid.Nt, -1)
        probes = _normalized_probe_matrix(eig, probes)
        orphan = np.any(np.isnan(probes), axis=0)
        probes = np.nan_to_num(probes)
        sums = _picard_sums(eig, probes)
        out = np.where((sums <= SUM_FLOOR) | orphan, np.inf, 1.0 / np.maximum(sums, SUM_FLOOR))
        return out.reshape(len(svals), -1)

    # chunks hold every time of their points; values run s-major like points
    values = np.concatenate(list(chunk_map(run_chunk, jobs)), axis=1).ravel()

    finite = np.isfinite(values)
    vmax = values[finite].max() if np.any(finite) else 1.0
    normalized = np.where(finite, values / vmax, 1.0)
    mask = normalized >= threshold
    truth = np.tile(inside, len(svals))
    return IndicatorGrid(points, values, normalized, mask, truth)


def jaccard(mask: np.ndarray, truth: np.ndarray) -> float:
    """Overlap-over-union score of two boolean masks (1.0 for two empties)."""
    mask = np.asarray(mask, dtype=bool)
    truth = np.asarray(truth, dtype=bool)
    union = np.sum(mask | truth)
    if union == 0:
        return 1.0
    return float(np.sum(mask & truth) / union)
