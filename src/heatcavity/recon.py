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

import ctypes
import functools
from dataclasses import dataclass

import numpy as np

from .forward import (
    BoundaryField,
    RetardedBlocks,
    TimeGrid,
    assemble_blocks,
    green_probe_traces,
)
from .geometry import TOL_GEOM, BoundaryCurve, signed_distance
from .ndmap import TILE, _tile_pairs

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
    them, not only the retained head), C-contiguous; eigendecompose builds
    it in the buffer of the S it was given.  retained counts the leading
    columns that survive the relative cutoff.
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
        if self.margin is not None and not self.margin >= 0:  # nan too
            raise ValueError(f"sampling margin must be nonnegative, got {self.margin}")


@dataclass
class IndicatorGrid:
    points: list[ProbePoint]
    values: np.ndarray
    normalized: np.ndarray
    mask: np.ndarray
    truth: np.ndarray

    def __len__(self) -> int:
        return len(self.points)


@functools.cache
def _lapack_syevd():
    """numpy's own LAPACK dsyevd with 64-bit integers, or None where the
    library numpy links exports no such symbol."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):
        return None
    # numpy >= 2 wheels prefix scipy-openblas's symbols; 1.x ILP64 wheels do not
    for name in ("scipy_dsyevd_64_", "dsyevd_64_"):
        syevd = getattr(lib, name, None)
        if syevd is not None:
            i64, ptr = ctypes.POINTER(ctypes.c_int64), ctypes.c_void_p
            # JOBZ, UPLO, N, A, LDA, W, WORK, LWORK, IWORK, LIWORK, INFO, and
            # the hidden lengths of the two character arguments
            syevd.argtypes = [ctypes.c_char_p] * 2 + [i64, ptr, i64, ptr, ptr, i64, ptr, i64, i64]
            syevd.argtypes += [ctypes.c_size_t] * 2
            syevd.restype = None
            return syevd
    return None


def eigh_route() -> str:
    """How eigendecompose solves: "lapack-inplace" on S's own buffer, or
    "numpy" (np.linalg.eigh, then a copy into S) without the symbol."""
    return "numpy" if _lapack_syevd() is None else "lapack-inplace"


def _transpose_in_place(a: np.ndarray) -> None:
    """a <- a.T for a square array, one tile pair at a time."""
    for rows, cols in _tile_pairs(a.shape[0]):
        if rows == cols:
            a[rows, rows] = a[rows, rows].T.copy()
        else:
            upper = a[rows, cols].copy()
            a[rows, cols] = a[cols, rows].T
            a[cols, rows] = upper.T


def _syevd_in_place(syevd, a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the C-contiguous a, which ends up holding
    its orthonormal eigenvectors, one per column.

    dsyevd (jobz='V', uplo='L') works on a column-major array, so a is
    transposed in place before and after the call: LAPACK sees the buffer
    numpy's eigh would hand it, with the workspace LAPACK's own query asks
    for, as numpy's does, and returns the same bits.
    """
    n = a.shape[0]
    w = np.empty(n)
    info = ctypes.c_int64(0)

    def call(work, lwork, iwork, liwork):
        def ref(value):
            return ctypes.byref(ctypes.c_int64(value))

        syevd(
            b"V", b"L", ref(n), a.ctypes.data, ref(max(n, 1)), w.ctypes.data,
            work.ctypes.data, ref(lwork), iwork.ctypes.data, ref(liwork),
            ctypes.byref(info), 1, 1,
        )  # fmt: skip
        if info.value != 0:
            raise np.linalg.LinAlgError(f"LAPACK dsyevd failed with info={info.value}")

    work, iwork = np.empty(1), np.empty(1, dtype=np.int64)
    call(work, -1, iwork, -1)  # the workspace query
    lwork, liwork = int(work[0]), int(iwork[0])
    work, iwork = np.empty(lwork), np.empty(liwork, dtype=np.int64)
    _transpose_in_place(a)
    call(work, lwork, iwork, liwork)
    _transpose_in_place(a)
    return w


def eigendecompose(S: np.ndarray, gram: np.ndarray, tau: float) -> EigenSystem:
    """Full symmetric eigendecomposition with a relative spectral cutoff.

    Eigenvectors are returned as W-orthonormal coefficient vectors
    (columns), i.e. the orthonormal eigenvectors of S scaled back by
    G^{-1/2}.  Retained pairs are those with lambda_n >= tau * lambda_1
    and lambda_n > 0; trailing pairs are kept for diagnostics but excluded
    from the indicator series.

    S is overwritten: its buffer becomes the returned vectors, so the
    solve needs S plus LAPACK's 2n^2 workspace and no other n x n array.
    An S that is not a writeable C-contiguous float64 array is copied
    first and left as it was.  A failed LAPACK solve raises
    np.linalg.LinAlgError, a ValueError.
    """
    S = np.require(S, dtype=np.float64, requirements=["C", "A", "W"])
    gram = np.asarray(gram, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError("S must be a square matrix")
    norm = np.linalg.norm(S)
    if not np.isfinite(norm):
        raise ValueError("S has a non-finite norm: nan or inf entries")
    if norm > 0 and np.linalg.norm(S - S.T) > 1e-10 * norm:
        raise ValueError("S is not symmetric to the required tolerance")
    if not 0.0 < tau < 1.0:
        raise ValueError(f"cutoff ratio must be in (0, 1), got {tau}")
    if gram.shape != (S.shape[0],) or np.any(gram <= 0):
        raise ValueError("gram must be a positive weight vector matching S")

    syevd = _lapack_syevd()
    if syevd is None:
        lam, vec = np.linalg.eigh(S)
        S[...] = vec
    else:
        lam = _syevd_in_place(syevd, S)
    lam = lam[::-1]
    if not lam[0] > 0:
        raise ValueError("operator not positive — check symmetrization/noise level")
    retained = int(np.sum((lam >= tau * lam[0]) & (lam > 0)))
    # vectors = vec[:, ::-1] / sqrt(g)[:, None], formed in S a block of rows at a time
    sqrt_g = np.sqrt(gram)
    for lo in range(0, S.shape[0], TILE):
        rows = slice(lo, lo + TILE)
        S[rows] = S[rows, ::-1] / sqrt_g[rows, None]
    return EigenSystem(lam, S, retained, gram)


def _normalized_probe_matrix(eig: EigenSystem, probes: np.ndarray) -> np.ndarray:
    """W-normalize probe columns; all-zero probes become NaN columns."""
    g = eig.gram
    norms = np.sqrt(np.sum(g[:, None] * probes**2, axis=0))
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(norms[None, :] > 0, probes / norms[None, :], np.nan)


def _picard_terms(eig: EigenSystem, probes: np.ndarray) -> np.ndarray:
    """Retained Picard terms |<p, psi_n>_W|^2 / lambda_n, shape (n*, P), for
    W-normalized probe columns."""
    coeff = eig.retained_vectors.T @ (eig.gram[:, None] * probes)
    return coeff**2 / eig.retained_lambdas[:, None]


def _indicators(eig: EigenSystem, probes: np.ndarray) -> np.ndarray:
    """W for each probe column: the reciprocal retained Picard sum of the
    W-normalized column, or np.inf for a zero column or a sum at or below
    SUM_FLOOR."""
    probes = _normalized_probe_matrix(eig, probes)
    orphan = np.any(np.isnan(probes), axis=0)
    sums = np.sum(_picard_terms(eig, np.nan_to_num(probes)), axis=0)
    return np.where((sums <= SUM_FLOOR) | orphan, np.inf, 1.0 / np.maximum(sums, SUM_FLOOR))


def picard_indicator(eig: EigenSystem, probe: BoundaryField) -> float:
    """Reciprocal Picard series for one probe; np.inf when out of reach.

    The probe is W-normalized first, making the value scale-free; a probe
    orthogonal to the retained span (including the zero probe) yields the
    infinite sentinel.
    """
    if eig.retained < 1:
        raise ValueError("eigensystem has no retained pairs")
    return float(_indicators(eig, probe.flatten()[:, None])[0])


def picard_partial_sums(eig: EigenSystem, probe: BoundaryField) -> np.ndarray:
    """Cumulative Picard sums over the retained pairs (diagnostic curve).

    Interior points show partial sums that level off within the retained
    range; exterior points keep growing by roughly constant factors per
    eigenvalue decade, which is the practical face of the range dichotomy.
    """
    vec = _normalized_probe_matrix(eig, probe.flatten()[:, None])
    if np.any(np.isnan(vec)):
        return np.zeros(eig.retained)
    return np.cumsum(_picard_terms(eig, vec)[:, 0])


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


def probe_lattice(
    omega: BoundaryCurve, spec: SamplingSpec, cavity: BoundaryCurve | None = None
) -> tuple[np.ndarray, np.ndarray, float]:
    """The sampling points kept by sampling_points, less those on the cavity
    boundary (within the geometric tolerance); whether each lies inside the
    cavity (all False without one); and the margin used."""
    pts, margin = sampling_points(omega, spec)
    inside = np.zeros(len(pts), dtype=bool)
    if cavity is not None:
        d = signed_distance(cavity.spec, pts)
        clear = np.abs(d) > TOL_GEOM
        pts, inside = pts[clear], d[clear] < 0
    return pts, inside, margin


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
    lattice: tuple | None = None,
) -> IndicatorGrid:
    """Indicator values, normalized grid, and mask over the sampling grid.

    Points on the cavity boundary (within the geometric tolerance) are
    excluded.  Values are normalized by the largest finite value over the
    whole grid; infinite sentinels map to 1.  chunk_map may be replaced by
    a parallel map over probe batches — batches are fixed-size, so results
    are identical no matter how they are scheduled.  lattice is the result
    of probe_lattice for these arguments, when the caller has it already.
    """
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    pts, inside, _ = lattice or probe_lattice(omega, sampling, cavity)
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
        return _indicators(eig, traces.reshape(omega.M * grid.Nt, -1)).reshape(len(svals), -1)

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
