"""Parametric closed curves, their discretization and point membership.

All boundary curves (outer conductor boundary and cavity boundary) come from a
small family of closed-form counterclockwise parametrizations.  Discretization
places nodes uniformly in parameter and uses the trapezoid rule in parameter,
which is spectrally accurate for smooth closed curves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Points closer than this to a curve are considered "on" it.
TOL_GEOM = 1e-9

_KINDS = ("circle", "ellipse", "kite", "peanut")

# Parameter layout per kind (all counterclockwise):
#   circle:  (cx, cy, r)        x = c + r (cos t, sin t)
#   ellipse: (cx, cy, a, b)     x = c + (a cos t, b sin t)
#   kite:    (cx, cy, s)        x = c + s (cos t + 0.65 cos 2t - 0.65, 1.5 sin t)
#   peanut:  (cx, cy, s)        x = c + s sqrt(cos^2 t + 0.25 sin^2 t) (cos t, sin t)
_NPARAMS = {"circle": 3, "ellipse": 4, "kite": 3, "peanut": 3}


class GeometryError(ValueError):
    """Invalid curve description or parameters."""


class OnBoundaryError(ValueError):
    """Membership query for a point lying on (or too close to) the curve."""


@dataclass(frozen=True)
class CurveSpec:
    kind: str
    params: tuple[float, ...]

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise GeometryError(f"unknown curve kind {self.kind!r}; expected one of {_KINDS}")
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        if len(self.params) != _NPARAMS[self.kind]:
            raise GeometryError(
                f"{self.kind} takes {_NPARAMS[self.kind]} parameters, got {len(self.params)}"
            )
        scales = self.params[2:]
        if any(not np.isfinite(p) for p in self.params) or any(s <= 0 for s in scales):
            raise GeometryError(f"nonpositive or non-finite size parameter in {self}")


@dataclass(frozen=True)
class BoundaryCurve:
    """A closed curve sampled at M nodes, uniform in parameter.

    normals point out of the enclosed region; weights are the arclength
    trapezoid weights |x'(t_i)| * (2 pi / M); curvature is the signed
    curvature (positive for a counterclockwise convex arc).
    """

    spec: CurveSpec
    M: int
    nodes: np.ndarray      # (M, 2)
    normals: np.ndarray    # (M, 2), unit, outward
    weights: np.ndarray    # (M,)
    curvature: np.ndarray  # (M,)

    @property
    def perimeter(self) -> float:
        return float(self.weights.sum())


def _eval_curve(spec: CurveSpec, t: np.ndarray):
    """Position, velocity and acceleration of the parametrization at t."""
    t = np.asarray(t, dtype=float)
    ct, st = np.cos(t), np.sin(t)
    if spec.kind == "circle":
        cx, cy, r = spec.params
        x = np.stack([cx + r * ct, cy + r * st], -1)
        v = np.stack([-r * st, r * ct], -1)
        a = np.stack([-r * ct, -r * st], -1)
    elif spec.kind == "ellipse":
        cx, cy, ra, rb = spec.params
        x = np.stack([cx + ra * ct, cy + rb * st], -1)
        v = np.stack([-ra * st, rb * ct], -1)
        a = np.stack([-ra * ct, -rb * st], -1)
    elif spec.kind == "kite":
        cx, cy, s = spec.params
        c2, s2 = np.cos(2 * t), np.sin(2 * t)
        x = np.stack([cx + s * (ct + 0.65 * c2 - 0.65), cy + 1.5 * s * st], -1)
        v = np.stack([s * (-st - 1.3 * s2), 1.5 * s * ct], -1)
        a = np.stack([s * (-ct - 2.6 * c2), -1.5 * s * st], -1)
    else:  # peanut
        cx, cy, s = spec.params
        r2 = ct * ct + 0.25 * st * st
        r = s * np.sqrt(r2)
        # r'(t) and r''(t) for r = s sqrt(cos^2 + 0.25 sin^2)
        dr = s * (-0.75 * st * ct) / np.sqrt(r2)
        d2r = s * (-0.75 * (ct * ct - st * st)) / np.sqrt(r2) - dr * dr / (s * np.sqrt(r2))
        x = np.stack([cx + r * ct, cy + r * st], -1)
        v = np.stack([dr * ct - r * st, dr * st + r * ct], -1)
        a = np.stack(
            [d2r * ct - 2 * dr * st - r * ct, d2r * st + 2 * dr * ct - r * st], -1
        )
    return x, v, a


def _check_simple(spec: CurveSpec, n: int = 256) -> None:
    """Reject parametrizations whose sampled polygon self-intersects."""
    t = 2 * np.pi * np.arange(n) / n
    p, _, _ = _eval_curve(spec, t)
    q = np.roll(p, -1, axis=0)
    d = q - p
    # segment pair (i, j) crossing test, vectorized over all non-adjacent pairs
    cross = lambda u, w: u[..., 0] * w[..., 1] - u[..., 1] * w[..., 0]
    pi, di = p[:, None, :], d[:, None, :]
    pj, dj = p[None, :, :], d[None, :, :]
    denom = cross(di, dj)
    rel = pj - pi
    with np.errstate(divide="ignore", invalid="ignore"):
        s = cross(rel, dj) / denom
        u = cross(rel, di) / denom
    hit = (np.abs(denom) > 1e-14) & (s > 1e-9) & (s < 1 - 1e-9) & (u > 1e-9) & (u < 1 - 1e-9)
    i, j = np.indices(hit.shape)
    adjacent = (np.abs(i - j) <= 1) | (np.abs(i - j) >= n - 1)
    if np.any(hit & ~adjacent):
        raise GeometryError(f"self-intersecting curve for {spec}")


def make_curve(spec: CurveSpec, M: int) -> BoundaryCurve:
    """Discretize a curve spec with M nodes uniform in parameter.

    M >= 3 is the geometric minimum; pipeline configurations enforce
    M >= 8 separately.
    """
    if M < 3:
        raise GeometryError(f"need at least 3 nodes, got M={M}")
    _check_simple(spec)
    t = 2 * np.pi * np.arange(M) / M
    x, v, a = _eval_curve(spec, t)
    speed = np.hypot(v[:, 0], v[:, 1])
    if np.any(speed <= 0):
        raise GeometryError(f"degenerate parametrization for {spec}")
    tangent = v / speed[:, None]
    normals = np.stack([tangent[:, 1], -tangent[:, 0]], -1)
    weights = speed * (2 * np.pi / M)
    curvature = (v[:, 0] * a[:, 1] - v[:, 1] * a[:, 0]) / speed**3
    return BoundaryCurve(spec, M, x, normals, weights, curvature)


_DIST_CHUNK = 256  # points per batch in signed_distance: temporaries stay a few MB


def _dot(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Dot products over the last axis, rounded as the 1-D ``u @ w`` is."""
    return np.matmul(u[..., None, :], w[..., :, None])[..., 0, 0]


def signed_distance(spec: CurveSpec, points) -> np.ndarray:
    """Signed distance of (P, 2) points to the parametric curve; negative inside.

    Per point, the 3 nearest of 2048 parameter samples seed up to 8 Newton
    steps on (x(t) - y) . x'(t) = 0.  The closest foot point x(t*) gives the
    distance, and the side of its outward normal that y lies on the sign;
    accurate enough to resolve the TOL_GEOM on-boundary band.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    t_seed = 2 * np.pi * np.arange(2048) / 2048
    x_seed, _, _ = _eval_curve(spec, t_seed)
    out = np.empty(points.shape[0])
    for lo in range(0, points.shape[0], _DIST_CHUNK):
        y = points[lo : lo + _DIST_CHUNK, None, :]  # (P, 1, 2)
        d2 = (x_seed[None, :, 0] - y[..., 0]) ** 2 + (x_seed[None, :, 1] - y[..., 1]) ** 2
        t = t_seed[np.argsort(d2, axis=1)[:, :3]]  # (P, 3)
        active = np.ones(t.shape, dtype=bool)
        for _ in range(8):
            x, v, a = _eval_curve(spec, t)
            r = x - y
            h = _dot(v, v) + _dot(r, a)
            active &= h > 0
            step = np.where(active, _dot(r, v) / np.where(active, h, 1.0), 0.0)
            t = t - step
            active &= np.abs(step) >= 1e-15
        x, v, _ = _eval_curve(spec, t)
        r = y - x
        dist = np.hypot(r[..., 0], r[..., 1])
        side = r[..., 0] * v[..., 1] - r[..., 1] * v[..., 0]  # |x'| (y - x) . n
        rows, best = np.arange(t.shape[0]), np.argmin(dist, axis=1)
        out[lo : lo + _DIST_CHUNK] = np.where(side < 0, -dist, dist)[rows, best]
    return out


def distance_to_curve(spec: CurveSpec, y) -> float:
    """Distance from a point to the parametric curve (not its polygon)."""
    return float(abs(signed_distance(spec, y)[0]))


def winding_number(spec: CurveSpec, y, n: int | None = None) -> int:
    """Winding number of the curve about y by summed angle increments."""
    y = np.asarray(y, dtype=float)
    if n is None:
        # polygon must hug the curve to within half the point's clearance
        d = distance_to_curve(spec, y)
        n = int(np.clip(64.0 / np.sqrt(max(d, 1e-12)), 1024, 300_000))
    t = 2 * np.pi * np.arange(n + 1) / n
    x, _, _ = _eval_curve(spec, t)
    ang = np.arctan2(x[:, 1] - y[1], x[:, 0] - y[0])
    inc = np.diff(ang)
    inc = (inc + np.pi) % (2 * np.pi) - np.pi
    return int(np.rint(inc.sum() / (2 * np.pi)))


def points_in_region(points, curve: BoundaryCurve) -> np.ndarray:
    """Boolean mask of the (P, 2) points enclosed by the curve.

    Raises OnBoundaryError naming the first point within TOL_GEOM of the
    curve, where inside and outside are not resolved.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    d = signed_distance(curve.spec, points)
    band = np.abs(d) < TOL_GEOM
    if np.any(band):
        raise OnBoundaryError(f"on-boundary point {tuple(points[np.argmax(band)])}")
    return d < 0


def point_in_region(y, curve: BoundaryCurve) -> bool:
    """True iff the single point y is enclosed by the curve; see points_in_region."""
    return bool(points_in_region(y, curve)[0])
