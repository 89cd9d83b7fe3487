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
from .ndmap import _tile_pairs
from .timing import timed

#: Sum values at or below this are treated as "probe orthogonal to the
#: retained span" and reported as an infinite indicator.
SUM_FLOOR = 1e-300

#: Probe points are evaluated in fixed-size batches.  The batch size fixes
#: the row counts of the BLAS products, and so the bits of every value, and
#: bounds the memory of a batch's traces.
PROBE_CHUNK = 64


@dataclass
class EigenSystem:
    """Descending eigenpairs of the symmetrized operator in the W-product.

    lambdas holds every eigenvalue.  retained counts the leading ones that
    survive the relative cutoff, and vectors holds one W-orthonormal
    coefficient vector per retained pair, column by column: an (n, retained)
    C-contiguous array that eigendecompose builds in the buffer of the S it
    was given, or None when it was asked for eigenvalues alone.
    symmetry_rel is ||S - S.T||_F / ||S||_F of that S (0.0 for a zero S).
    """

    lambdas: np.ndarray
    vectors: np.ndarray | None
    retained: int
    gram: np.ndarray
    symmetry_rel: float = 0.0

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


#: The LAPACK routines heatcavity calls: dsyevd, for its workspace query,
#: and the three stages dsyevd runs, for eigendecompose; dgttrf and dgttrs,
#: the tridiagonal factorization and solve, for the radial oracle.  Each
#: takes its character arguments first (their hidden lengths come last),
#: then the given number of by-reference arguments, INFO last.
_LAPACK_ARGS = {
    "syevd": (2, 9),
    "sytrd": (1, 9),
    "stedc": (1, 10),
    "ormtr": (3, 10),
    "gttrf": (0, 7),
    "gttrs": (1, 10),
}


@functools.cache
def _lapack() -> dict | None:
    """numpy's own LAPACK routines of _LAPACK_ARGS with 64-bit integers, by
    short name, or None where the library numpy links does not export them."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):
        return None
    # numpy >= 2 wheels prefix scipy-openblas's symbols; 1.x ILP64 wheels do not
    for prefix in ("scipy_d", "d"):
        routines = {name: getattr(lib, f"{prefix}{name}_64_", None) for name in _LAPACK_ARGS}
        if None in routines.values():
            continue
        for name, (chars, refs) in _LAPACK_ARGS.items():
            fn = routines[name]
            fn.argtypes = [ctypes.c_char_p] * chars + [ctypes.c_void_p] * refs
            fn.argtypes += [ctypes.c_size_t] * chars
            fn.restype = None
        return routines
    return None


def eigh_route() -> str:
    """How eigendecompose solves: "lapack-inplace" (dsyevd's three stages on
    S's own buffer) or "numpy" (np.linalg.eigh) without the symbols."""
    return "numpy" if _lapack() is None else "lapack-inplace"


def _bind(lapack: dict, name: str, *args):
    """A function of no arguments that calls LAPACK's d<name> on args, which
    are converted once: bytes go as characters, arrays by address and ints
    by reference as 64-bit integers.  The arrays must outlive the function.
    A nonzero INFO raises np.linalg.LinAlgError."""
    info = ctypes.c_int64(0)
    refs = [
        a if isinstance(a, bytes)
        else a.ctypes.data if isinstance(a, np.ndarray)
        else ctypes.byref(ctypes.c_int64(a))
        for a in args
    ]  # fmt: skip
    fn = lapack[name]
    refs += [ctypes.byref(info)] + [1] * _LAPACK_ARGS[name][0]

    def call() -> None:
        fn(*refs)
        if info.value != 0:
            raise np.linalg.LinAlgError(f"LAPACK d{name} failed with info={info.value}")

    return call


def _call(lapack: dict, name: str, *args) -> None:
    """Call LAPACK's d<name> once, with arguments as _bind takes them."""
    _bind(lapack, name, *args)()


def _transpose_in_place(a: np.ndarray) -> None:
    """a <- a.T for a square array, one tile pair at a time."""
    for rows, cols in _tile_pairs(a.shape[0]):
        if rows == cols:
            a[rows, rows] = a[rows, rows].T.copy()
        else:
            upper = a[rows, cols].copy()
            a[rows, cols] = a[cols, rows].T
            a[cols, rows] = upper.T


def _skew_norm(a: np.ndarray) -> float:
    """||a - a.T||_F of a square array, one tile pair at a time."""
    total = 0.0
    for rows, cols in _tile_pairs(a.shape[0]):
        d = a[rows, cols] - a[cols, rows].T
        total += (1.0 if rows == cols else 2.0) * np.vdot(d, d)
    return float(np.sqrt(total))


def _syevd_stages(lapack: dict, a: np.ndarray, timings: dict):
    """dsyevd (jobz='V', uplo='L') on the C-contiguous n x n array a, n >= 2,
    run as its three stages, so that the last can be left out or run on
    some of the vectors.  Returns the ascending eigenvalues w and
    back_transform(k), the eigenvectors of a for the k largest of them, one
    per row, ascending like w.

    dsytrd reduces a to tridiagonal form, leaving its Householder
    reflectors in a; dstedc (compz='I') gives w and the eigenvectors of the
    tridiagonal form, one per row of z; dormtr turns rows of z into
    eigenvectors of a.  Each stage gets the slice of one workspace that
    dsyevd gives it, sized by dsyevd's own query: w has dsyevd's bits, and
    so has z back-transformed whole.
    """
    n = a.shape[0]
    w, work, iwork = np.empty(n), np.empty(1), np.empty(1, dtype=np.int64)
    _call(lapack, "syevd", b"V", b"L", n, a, n, w, work, -1, iwork, -1)
    work, iwork = np.empty(int(work[0])), np.empty(int(iwork[0]), dtype=np.int64)
    # dsyevd's layout: E, TAU, Z, then the later stages' scratch
    e, tau, z = work[:n], work[n : 2 * n], work[2 * n : 2 * n + n * n].reshape(n, n)
    scratch = work[2 * n + n * n :]
    with timed(timings, "tridiagonal"):
        # LAPACK reads the column-major lower triangle, which is that of a.T
        _transpose_in_place(a)
        # dsyevd first scales a into the range where its stages neither
        # over- nor underflow; its dlascl is then one multiplication
        smlnum = np.finfo(float).tiny / np.finfo(float).eps
        rmin, rmax, anrm = np.sqrt(smlnum), np.sqrt(1.0 / smlnum), max(a.max(), -a.min())
        sigma = rmin / anrm if 0 < anrm < rmin else rmax / anrm if anrm > rmax else 1.0
        if sigma != 1.0:
            a *= sigma
        _call(lapack, "sytrd", b"L", n, a, n, w, e, tau, work[2 * n :], work.size - 2 * n)
    with timed(timings, "values"):
        _call(lapack, "stedc", b"I", n, w, e, z, n, scratch, scratch.size, iwork, iwork.size)
        if sigma != 1.0:
            w *= 1.0 / sigma

    def back_transform(k: int) -> np.ndarray:
        top = z[n - k :]
        _call(lapack, "ormtr", b"L", b"L", b"N", n, k, a, n, tau, top, n, scratch, scratch.size)
        return top

    return w, back_transform


def eigendecompose(
    S: np.ndarray, gram: np.ndarray, tau: float, vectors: bool = True, timings: dict | None = None
) -> EigenSystem:
    """Symmetric eigendecomposition with a relative spectral cutoff.

    All eigenvalues are returned, descending.  Retained pairs are those
    with lambda_n >= tau * lambda_1 and lambda_n > 0; only their
    eigenvectors are formed, as W-orthonormal coefficient vectors
    (columns), i.e. the orthonormal eigenvectors of S scaled back by
    G^{-1/2}.  With vectors=False none are, and EigenSystem.vectors is None.

    S is overwritten: its buffer holds the returned vectors, so the solve
    needs S plus LAPACK's 2n^2 workspace and no other n x n array.  An S
    that is not a writeable C-contiguous float64 array is copied first and
    left as it was.  A failed LAPACK stage raises np.linalg.LinAlgError, a
    ValueError.  When given, timings gains the ``perf_counter`` seconds of
    the stages: ``tridiagonal`` (the reduction to tridiagonal form),
    ``values`` (the tridiagonal eigensolve) and ``vectors`` (the back-
    transform and scaling of the retained vectors); np.linalg.eigh is
    timed as ``values``.  The symmetry check's ratio ||S - S.T|| / ||S||
    is returned as EigenSystem.symmetry_rel.
    """
    S = np.require(S, dtype=np.float64, requirements=["C", "A", "W"])
    gram = np.asarray(gram, dtype=float)
    timings = {} if timings is None else timings
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError("S must be a square matrix")
    norm = np.linalg.norm(S)
    if not np.isfinite(norm):
        raise ValueError("S has a non-finite norm: nan or inf entries")
    skew = _skew_norm(S) if norm > 0 else 0.0
    if skew > 1e-10 * norm:
        raise ValueError("S is not symmetric to the required tolerance")
    symmetry_rel = float(skew / norm) if norm > 0 else 0.0
    if not 0.0 < tau < 1.0:
        raise ValueError(f"cutoff ratio must be in (0, 1), got {tau}")
    n = S.shape[0]
    if gram.shape != (n,) or not np.all((gram > 0) & (gram < np.inf)):
        raise ValueError("gram must be a positive finite weight vector matching S")

    lapack = _lapack()
    if lapack is None or n < 2:  # dsyevd itself returns early below n = 2
        with timed(timings, "values"):
            lam, vec = np.linalg.eigh(S)
        ascending = lambda k: vec[:, n - k :].T
    else:
        lam, ascending = _syevd_stages(lapack, S, timings)
    lam = lam[::-1]
    if not lam[0] > 0:
        raise ValueError("operator not positive — check symmetrization/noise level")
    retained = int(np.sum((lam >= tau * lam[0]) & (lam > 0)))
    if not vectors:
        return EigenSystem(lam, None, retained, gram, symmetry_rel)
    with timed(timings, "vectors"):
        # in S's buffer, with no temporary: the workspace is still held
        psi = S.reshape(-1)[: n * retained].reshape(n, retained)
        np.divide(ascending(retained)[::-1].T, np.sqrt(gram)[:, None], out=psi)
    return EigenSystem(lam, psi, retained, gram, symmetry_rel)


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
    lattice: tuple | None = None,
    timings: dict | None = None,
) -> IndicatorGrid:
    """Indicator values, normalized grid, and mask over the sampling grid.

    Points on the cavity boundary (within the geometric tolerance) are
    excluded.  Values are normalized by the largest finite value over the
    whole grid; infinite sentinels map to 1.  lattice is the result of
    probe_lattice for these arguments, when the caller has it already.
    When given, timings gains the ``perf_counter`` seconds of the stages:
    ``lattice`` (classifying the lattice points, when lattice is not given),
    ``traces`` (the region's lag blocks, Green solves and probe traces) and
    ``indicator`` (the Picard sums and the mask).
    """
    if not threshold >= 0:  # nan too
        raise ValueError("threshold must be nonnegative")
    timings = {} if timings is None else timings
    if lattice is None:
        with timed(timings, "lattice"):
            lattice = probe_lattice(omega, sampling, cavity)
    pts, inside, _ = lattice
    svals = slice_times(grid, sampling.s_slices)
    points = [ProbePoint((float(p[0]), float(p[1])), float(s)) for s in svals for p in pts]
    if not points:
        raise ValueError("sampling grid contains no admissible probe points")
    if region is None:
        with timed(timings, "traces"):
            region = assemble_blocks(omega, grid)

    jobs = [pts[lo : lo + PROBE_CHUNK] for lo in range(0, len(pts), PROBE_CHUNK)]

    def run_chunk(chunk_pts):
        # one Neumann solve per chunk serves every sampling time
        with timed(timings, "traces"):
            traces = green_probe_traces(chunk_pts, svals, omega, grid, region=region)
        with timed(timings, "indicator"):
            values = _indicators(eig, traces.reshape(omega.M * grid.Nt, -1))
        return values.reshape(len(svals), -1)

    # chunks hold every time of their points; values run s-major like points
    values = np.concatenate(list(map(run_chunk, jobs)), axis=1).ravel()

    with timed(timings, "indicator"):
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
