"""Curve discretization, quadrature accuracy, and point membership."""

import hypothesis
import numpy as np
import pytest
from scipy.integrate import quad

from heatcavity.geometry import (
    CurveSpec,
    GeometryError,
    OnBoundaryError,
    _dot,
    _eval_curve,
    distance_to_curve,
    make_curve,
    point_in_region,
    points_in_region,
    signed_distance,
    winding_number,
)

CIRCLE = CurveSpec("circle", (0.0, 0.0, 1.0))
ELLIPSE = CurveSpec("ellipse", (0.1, -0.2, 0.8, 0.5))
KITE = CurveSpec("kite", (0.0, 0.0, 0.4))
PEANUT = CurveSpec("peanut", (0.0, 0.0, 0.5))


def scalar_distance_reference(spec: CurveSpec, y) -> float:
    """One point at a time: the Newton search that signed_distance batches."""
    y = np.asarray(y, dtype=float)
    t = 2 * np.pi * np.arange(2048) / 2048
    x, _, _ = _eval_curve(spec, t)
    best = np.inf
    for tk in t[np.argsort(np.sum((x - y) ** 2, axis=1))[:3]]:
        for _ in range(8):
            xk, vk, ak = _eval_curve(spec, np.array([tk]))
            r = xk[0] - y
            h = vk[0] @ vk[0] + r @ ak[0]
            if h <= 0:
                break
            step = (r @ vk[0]) / h
            tk -= step
            if abs(step) < 1e-15:
                break
        xk, _, _ = _eval_curve(spec, np.array([tk]))
        best = min(best, float(np.hypot(*(xk[0] - y))))
    return best


def argsort_signed_distance(spec: CurveSpec, points) -> np.ndarray:
    """signed_distance with its seeds taken from a full argsort of each
    point's 2048 squared distances, in batches of 256 points."""
    t_seed = 2 * np.pi * np.arange(2048) / 2048
    x_seed, _, _ = _eval_curve(spec, t_seed)
    out = np.empty(points.shape[0])
    for lo in range(0, points.shape[0], 256):
        y = points[lo : lo + 256, None, :]
        d2 = (x_seed[None, :, 0] - y[..., 0]) ** 2 + (x_seed[None, :, 1] - y[..., 1]) ** 2
        t = t_seed[np.argsort(d2, axis=1)[:, :3]]
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
        side = r[..., 0] * v[..., 1] - r[..., 1] * v[..., 0]
        best = np.argmin(dist, axis=1)
        out[lo : lo + 256] = np.where(side < 0, -dist, dist)[np.arange(t.shape[0]), best]
    return out


def arclength_oracle(spec: CurveSpec) -> float:
    """Adaptive quadrature of |x'(t)| over one period."""

    def speed(t):
        _, v, _ = _eval_curve(spec, np.array([t]))
        return float(np.hypot(v[0, 0], v[0, 1]))

    val, _ = quad(speed, 0.0, 2.0 * np.pi, limit=200, epsabs=1e-12, epsrel=1e-12)
    return val


class TestMakeCurve:
    def test_circle_m4_nodes_and_weights(self):
        curve = make_curve(CIRCLE, 4)
        expected = np.array([[1, 0], [0, 1], [-1, 0], [0, -1]], dtype=float)
        assert np.allclose(curve.nodes, expected, atol=1e-14)
        assert np.allclose(curve.weights, 2.0 * np.pi / 4.0, rtol=1e-14)

    @pytest.mark.parametrize("M", [3, 8, 17, 64, 301])
    def test_circle_perimeter_exact(self, M):
        curve = make_curve(CIRCLE, M)
        assert abs(curve.perimeter - 2.0 * np.pi) <= 1e-12 * 2.0 * np.pi

    def test_kite_perimeter_vs_adaptive_quadrature(self):
        curve = make_curve(KITE, 64)
        oracle = arclength_oracle(KITE)
        assert abs(curve.perimeter - oracle) <= 1e-3 * oracle

    @pytest.mark.parametrize("spec", [ELLIPSE, KITE, PEANUT])
    def test_perimeter_refinement_order_at_least_two(self, spec):
        oracle = arclength_oracle(spec)
        errs = [abs(make_curve(spec, M).perimeter - oracle) for M in (8, 16, 32)]
        floor = 1e-12 * oracle
        for coarse, fine in zip(errs, errs[1:]):
            assert fine <= max(coarse / 4.0, floor)

    @pytest.mark.parametrize("spec", [CIRCLE, ELLIPSE, KITE, PEANUT])
    def test_normals_unit_and_outward(self, spec):
        curve = make_curve(spec, 40)
        lengths = np.hypot(curve.normals[:, 0], curve.normals[:, 1])
        assert np.all(np.abs(lengths - 1.0) <= 1e-12)
        # a small outward nudge must leave the enclosed region
        for node, normal in zip(curve.nodes[::5], curve.normals[::5]):
            assert not point_in_region(node + 1e-3 * normal, curve)
            assert point_in_region(node - 1e-3 * normal, curve)

    def test_too_few_nodes_rejected(self):
        with pytest.raises(GeometryError):
            make_curve(CIRCLE, 2)

    def test_invalid_specs_rejected(self):
        with pytest.raises(GeometryError):
            CurveSpec("circle", (0.0, 0.0, -1.0))
        with pytest.raises(GeometryError):
            CurveSpec("circle", (0.0, 0.0))
        with pytest.raises(GeometryError):
            CurveSpec("square", (0.0, 0.0, 1.0))
        with pytest.raises(GeometryError):
            CurveSpec("ellipse", (0.0, 0.0, 1.0, np.nan))


def polygon_self_intersects(p: np.ndarray) -> bool:
    """True when two non-adjacent edges of the closed polygon p cross."""
    n = len(p)
    d = np.roll(p, -1, axis=0) - p
    # segment pair (i, j) crossing test, vectorized over all pairs
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
    return bool(np.any(hit & ~adjacent))


def any_spec(kind: str):
    """Specs of one kind: random centre and scale, and aspect ratio for ellipses."""
    st = hypothesis.strategies
    centre = st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0))
    scale = st.floats(1e-2, 1e2)
    if kind == "ellipse":
        ratio = st.floats(0.05, 20.0)
        return st.builds(lambda c, a, r: CurveSpec(kind, (*c, a, a * r)), centre, scale, ratio)
    return st.builds(lambda c, s: CurveSpec(kind, (*c, s)), centre, scale)


class TestSimpleCurves:
    """make_curve does not check its specs: each kind is one simple shape up
    to translation and positive scale, so none self-intersects or stalls."""

    def test_crossing_test_sees_a_figure_eight(self):
        # off-node phase: the crossing at the origin falls inside two edges
        t = 2 * np.pi * (np.arange(256) + 0.3) / 256
        assert polygon_self_intersects(np.column_stack([np.sin(2 * t), np.sin(t)]))
        assert not polygon_self_intersects(np.column_stack([np.cos(t), np.sin(t)]))

    @pytest.mark.parametrize("kind", ["circle", "ellipse", "kite", "peanut"])
    def test_every_spec_is_simple_with_nonzero_speed(self, kind):
        @hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
        @hypothesis.given(any_spec(kind))
        def simple(spec):
            p, v, _ = _eval_curve(spec, 2 * np.pi * np.arange(256) / 256)
            assert not polygon_self_intersects(p)
            assert np.all(np.hypot(v[:, 0], v[:, 1]) > 0)

        simple()


class TestMembership:
    def test_circle_center_inside(self):
        curve = make_curve(CIRCLE, 16)
        assert point_in_region((0.0, 0.0), curve)

    def test_far_point_outside(self):
        curve = make_curve(CIRCLE, 16)
        assert not point_in_region((2.0, 0.0), curve)

    def test_on_boundary_is_an_error(self):
        curve = make_curve(CIRCLE, 16)
        with pytest.raises(OnBoundaryError):
            point_in_region((1.0 + 1e-12, 0.0), curve)

    @pytest.mark.parametrize(
        "spec,analytic",
        [
            (CIRCLE, lambda p: np.hypot(p[0], p[1]) < 1.0),
            (
                ELLIPSE,
                lambda p: ((p[0] - 0.1) / 0.8) ** 2 + ((p[1] + 0.2) / 0.5) ** 2 < 1.0,
            ),
        ],
    )
    def test_winding_membership_matches_analytic(self, spec, analytic):
        rng = np.random.default_rng(42)
        pts = rng.uniform(-1.5, 1.5, size=(10_000, 2))
        # stay clear of the on-boundary band where both answers are undefined
        pts = pts[np.abs(signed_distance(spec, pts)) > 1e-6]
        curve = make_curve(spec, 32)
        mism = int(np.sum(points_in_region(pts, curve) != analytic(pts.T)))
        assert mism == 0

    def test_winding_number_values(self):
        assert winding_number(CIRCLE, (0.2, -0.3)) == 1
        assert winding_number(CIRCLE, (1.7, 0.4)) == 0


class TestSignedDistance:
    @pytest.mark.parametrize(
        "spec,box",
        [(KITE, ((-0.8, 0.6), (-0.7, 0.7))), (PEANUT, ((-0.6, 0.6), (-0.4, 0.4)))],
    )
    def test_sign_matches_winding_number(self, spec, box):
        rng = np.random.default_rng(3)
        pts = np.column_stack([rng.uniform(*box[0], 1500), rng.uniform(*box[1], 1500)])
        d = signed_distance(spec, pts)
        clear = np.abs(d) > 1e-6
        assert clear.sum() > 1400 and 0 < (d[clear] < 0).sum() < clear.sum()
        wind = np.array([winding_number(spec, p) == 1 for p in pts[clear]])
        assert np.array_equal(d[clear] < 0, wind)

    @pytest.mark.parametrize("spec", [ELLIPSE, KITE, PEANUT])
    def test_distance_equals_scalar_reference(self, spec):
        # 600 points span many batches; same arithmetic, so equal bits
        pts = np.random.default_rng(5).uniform(-0.8, 0.6, size=(600, 2))
        want = [scalar_distance_reference(spec, p) for p in pts]
        assert np.array_equal(np.abs(signed_distance(spec, pts)), want)

    @pytest.mark.parametrize("spec", [CIRCLE, ELLIPSE, KITE, PEANUT])
    def test_partitioned_seeds_equal_full_argsort(self, spec):
        # the 3 nearest seeds, ordered by distance, start Newton exactly
        # where a full argsort's first 3 do
        pts = np.random.default_rng(17).uniform(-1.3, 1.3, size=(5000, 2))
        assert np.array_equal(signed_distance(spec, pts), argsort_signed_distance(spec, pts))

    def test_batch_matches_single_point_calls(self):
        curve = make_curve(KITE, 32)
        pts = np.random.default_rng(6).uniform(-0.8, 0.6, size=(300, 2))
        pts = pts[np.abs(signed_distance(KITE, pts)) > 1e-6]
        inside = points_in_region(pts, curve)
        assert 0 < inside.sum() < len(pts)
        assert np.array_equal(inside, [point_in_region(p, curve) for p in pts])

    def test_batch_on_boundary_is_an_error(self):
        curve = make_curve(CIRCLE, 16)
        with pytest.raises(OnBoundaryError, match="0.999"):
            points_in_region([(0.0, 0.0), (0.0, 1.0 - 1e-12), (3.0, 0.0)], curve)


class TestDistance:
    def test_circle_distance_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = rng.uniform(-2, 2, size=2)
            want = abs(np.hypot(*p) - 1.0)
            assert abs(distance_to_curve(CIRCLE, p) - want) <= 1e-9 + 1e-9 * want

    def test_kite_distance_nonnegative_and_zero_on_curve(self):
        t = np.linspace(0.3, 5.9, 7)
        x, _, _ = _eval_curve(KITE, t)
        for p in x:
            assert distance_to_curve(KITE, p) <= 1e-10
