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

from .forward import RetardedBlocks, TimeGrid, _conductor_region, _probe_traces
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
    was given, or None when it was asked for eigenvalues alone, which
    reconstruct and the Picard functions refuse.
    symmetry_rel is ||S - S.T||_F / ||S||_F of that S (0.0 for a zero S).
    """

    lambdas: np.ndarray
    vectors: np.ndarray | None
    retained: int
    gram: np.ndarray
    symmetry_rel: float = 0.0

    def __post_init__(self):
        shape = (len(self.gram), self.retained)
        if self.vectors is not None and self.vectors.shape != shape:
            raise ValueError(f"vectors shape {self.vectors.shape} is not (n, retained) = {shape}")

    @property
    def retained_lambdas(self) -> np.ndarray:
        return self.lambdas[: self.retained]


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
    """Per probe point (y[i], s[i]), s-major: y is (P, 2) and s (P,)."""

    y: np.ndarray
    s: np.ndarray
    values: np.ndarray
    normalized: np.ndarray
    mask: np.ndarray
    truth: np.ndarray

    def __len__(self) -> int:
        return len(self.s)


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
def _numpy_lib() -> ctypes.CDLL | None:
    """numpy's linear-algebra extension, with the BLAS and LAPACK it links,
    or None where it cannot be opened."""
    try:
        return ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):
        return None


def blas_threads() -> int | None:
    """Threads of the OpenBLAS numpy links, or None where it does not export
    scipy-openblas's thread count."""
    get = getattr(_numpy_lib(), "scipy_openblas_get_num_threads64_", None)
    return None if get is None else int(get())


@functools.cache
def _lapack() -> dict | None:
    """numpy's own LAPACK routines of _LAPACK_ARGS with 64-bit integers, by
    short name, or None where the library numpy links does not export them."""
    lib = _numpy_lib()
    if lib is None:
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


def _reflector_rows(n: int):
    """(c, packed slice) for each row c of an n x n C array that holds a
    Householder vector of dsytrd (uplo='L'), in columns c+2 ... n-1; the
    packed rows follow one another, (n-1)(n-2)/2 doubles in all."""
    lo = 0
    for c in range(n - 2):
        yield c, slice(lo, lo + n - 2 - c)
        lo += n - 2 - c


def _syevd_stages(lapack: dict, a: np.ndarray, timings: dict, vectors: bool = True):
    """dsyevd (jobz='V', uplo='L') on the C-contiguous n x n array a, n >= 2,
    run as its three stages, so that the last can be left out or run on
    some of the vectors.  Returns the ascending eigenvalues w and, with
    vectors, back_transform(k): the eigenvectors of a for the k largest of
    them, one per row of a[n-k:], ascending like w (None without vectors).

    dsytrd reduces a to tridiagonal form, leaving its Householder
    reflectors in a; they wait packed, in n^2/2 doubles, while dstedc
    (compz='I') writes w and the eigenvectors of the tridiagonal form into
    a, one per row, with n^2 + 4n doubles of scratch; dormtr turns rows of
    a into eigenvectors of the input, reading the reflectors unpacked into
    a fresh n x n array.  So the solve holds a plus 1.5 n^2 doubles, and
    plus n^2 without vectors, where nothing is packed.

    The bits follow the workspace sizes, and each stage gets dsyevd's, or
    less where LAPACK does not use more: dsytrd the smaller of its own
    query and dsyevd's slice, dstedc dsyevd's slice, and dormtr the
    smaller of that slice and (k + 65) 64, the most its blocked path with
    64-wide blocks uses (its own query leaves out the block reflector).
    So w has dsyevd's bits, and so have all n vectors back-transformed.
    """
    n = a.shape[0]
    w, e, tau = np.empty(n), np.empty(n), np.empty(n)
    query, iwork = np.empty(1), np.empty(1, dtype=np.int64)
    _call(lapack, "syevd", b"V", b"L", n, a, n, w, query, -1, iwork, -1)
    # dsyevd's workspace: E, TAU, Z (n^2), then the later stages' scratch
    lwork, iwork = int(query[0]), np.empty(int(iwork[0]), dtype=np.int64)
    scratch = lwork - 2 * n - n * n
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
        _call(lapack, "sytrd", b"L", n, a, n, w, e, tau, query, -1)
        work = np.empty(min(int(query[0]), lwork - 2 * n))
        _call(lapack, "sytrd", b"L", n, a, n, w, e, tau, work, work.size)
        del work
        if vectors:
            packed = np.empty((n - 1) * (n - 2) // 2)
            for c, part in _reflector_rows(n):
                packed[part] = a[c, c + 2 :]
    with timed(timings, "values"):
        work = np.empty(scratch)
        _call(lapack, "stedc", b"I", n, w, e, a, n, work, scratch, iwork, iwork.size)
        del work
        if sigma != 1.0:
            w *= 1.0 / sigma
    if not vectors:
        return w, None

    def back_transform(k: int) -> np.ndarray:
        nonlocal packed  # freed once unpacked: call this once
        reflectors = np.zeros((n, n))
        for c, part in _reflector_rows(n):
            reflectors[c, c + 2 :] = packed[part]
        packed = None
        top, work = a[n - k :], np.empty(min((k + 65) * 64, scratch))
        _call(lapack, "ormtr", b"L", b"L", b"N", n, k, reflectors, n, tau, top, n, work, work.size)
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

    S is overwritten: its buffer holds the returned vectors, and LAPACK's
    tridiagonal eigenvectors before them, so the solve needs S plus 1.5 n^2
    doubles (the packed reflectors and dstedc's scratch, then the unpacked
    reflectors), or plus n^2 with vectors=False.  An S
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
        lam, ascending = _syevd_stages(lapack, S, timings, vectors)
    lam = lam[::-1]
    if not lam[0] > 0:
        raise ValueError("operator not positive — check symmetrization/noise level")
    retained = int(np.sum((lam >= tau * lam[0]) & (lam > 0)))
    if not vectors:
        return EigenSystem(lam, None, retained, gram, symmetry_rel)
    with timed(timings, "vectors"):
        # in S's buffer; numpy copies the rows first where psi overlaps
        # them (retained > n/2), once the reflectors are freed
        psi = S.reshape(-1)[: n * retained].reshape(n, retained)
        np.divide(ascending(retained)[::-1].T, np.sqrt(gram)[:, None], out=psi)
    return EigenSystem(lam, psi, retained, gram, symmetry_rel)


def _require_vectors(eig: EigenSystem) -> None:
    """Refuse an eigensystem that holds eigenvalues alone."""
    if eig.vectors is None:
        raise ValueError("eigensystem was solved with vectors=False and holds no eigenvectors")


def _picard_terms(eig: EigenSystem, probes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Retained Picard terms |<p, psi_n>_W|^2 / lambda_n, shape (n*, P), of
    the W-normalized probe columns p of probes (n, P), and which columns
    have no W-normalization (zero or not finite); their terms are dropped."""
    _require_vectors(eig)
    g = eig.gram
    if np.ndim(probes) != 2 or len(probes) != len(g):
        raise ValueError(f"probes of shape {np.shape(probes)} are not (n, P) columns, n = {len(g)}")
    norms = np.sqrt(np.sum(g[:, None] * probes**2, axis=0))
    with np.errstate(invalid="ignore", divide="ignore"):
        unit = np.where(norms[None, :] > 0, probes / norms[None, :], np.nan)
    orphan = np.any(np.isnan(unit), axis=0)
    coeff = eig.vectors.T @ (g[:, None] * np.nan_to_num(unit))
    return coeff**2 / eig.retained_lambdas[:, None], orphan


def picard_indicator(eig: EigenSystem, probes: np.ndarray) -> np.ndarray:
    """Reciprocal Picard series W (P,) of the probe columns (n, P).

    Each column is W-normalized first, making its value scale-free; a
    column orthogonal to the retained span, or zero, or a sum at or below
    SUM_FLOOR yields the infinite sentinel np.inf.
    """
    if eig.retained < 1:
        raise ValueError("eigensystem has no retained pairs")
    terms, orphan = _picard_terms(eig, probes)
    sums = np.sum(terms, axis=0)
    return np.where((sums <= SUM_FLOOR) | orphan, np.inf, 1.0 / np.maximum(sums, SUM_FLOOR))


def picard_partial_sums(eig: EigenSystem, probes: np.ndarray) -> np.ndarray:
    """Cumulative Picard sums (n*, P) of the probe columns (n, P); zeros for
    a zero column.

    Interior points show partial sums that level off within the retained
    range; exterior points keep growing by roughly constant factors per
    eigenvalue decade, which is the practical face of the range dichotomy.
    """
    terms, orphan = _picard_terms(eig, probes)
    return np.where(orphan, 0.0, np.cumsum(terms, axis=0))


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
    probe_lattice for these arguments, when the caller has it already: its
    points are not classified again.
    When given, timings gains the ``perf_counter`` seconds of the stages:
    ``lattice`` (classifying the lattice points, when lattice is not given),
    ``traces`` (the region's lag blocks, Green solves and probe traces) and
    ``indicator`` (the Picard sums and the mask).
    """
    if not threshold >= 0:  # nan too
        raise ValueError("threshold must be nonnegative")
    _require_vectors(eig)
    timings = {} if timings is None else timings
    if lattice is None:
        with timed(timings, "lattice"):
            lattice = probe_lattice(omega, sampling, cavity)
    pts, inside, _ = lattice
    if len(pts) == 0:
        raise ValueError("sampling grid contains no admissible probe points")
    svals = slice_times(grid, sampling.s_slices)
    with timed(timings, "traces"):
        region = _conductor_region(region, omega, grid)
    chunks = []
    for lo in range(0, len(pts), PROBE_CHUNK):
        # one Neumann solve per chunk serves every sampling time; the
        # lattice keeps only points inside the conductor
        with timed(timings, "traces"):
            traces = _probe_traces(pts[lo : lo + PROBE_CHUNK], svals, omega, region)
        with timed(timings, "indicator"):
            w = picard_indicator(eig, traces.reshape(omega.M * grid.Nt, -1))
        chunks.append(w.reshape(len(svals), -1))
    # chunks hold every time of their points; values run s-major
    values = np.concatenate(chunks, axis=1).ravel()

    with timed(timings, "indicator"):
        finite = np.isfinite(values)
        vmax = values[finite].max() if np.any(finite) else 1.0
        normalized = np.where(finite, values / vmax, 1.0)
        mask = normalized >= threshold
    y, s = np.tile(pts, (len(svals), 1)), np.repeat(svals, len(pts))
    return IndicatorGrid(y, s, values, normalized, mask, np.tile(inside, len(svals)))


#: Points whose mask margin is below this are counted as near the cut.
NEAR_CUT = 1e-6


def mask_margins(normalized: np.ndarray, threshold: float) -> np.ndarray:
    """|normalized / threshold - 1| per point: the relative move of the
    threshold that flips the point's mask entry; inf at threshold 0, which
    masks every point."""
    if threshold == 0:
        return np.full(np.shape(normalized), np.inf)
    return np.abs(normalized / threshold - 1.0)


def jaccard(mask: np.ndarray, truth: np.ndarray) -> float:
    """Overlap-over-union score of two boolean masks of one shape (1.0 for two empties)."""
    mask = np.asarray(mask, dtype=bool)
    truth = np.asarray(truth, dtype=bool)
    if mask.shape != truth.shape:
        raise ValueError(f"mask shape {mask.shape} differs from truth shape {truth.shape}")
    union = np.sum(mask | truth)
    if union == 0:
        return 1.0
    return float(np.sum(mask & truth) / union)
