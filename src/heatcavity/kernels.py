"""Closed-form heat-kernel quantities used by the boundary-integral solvers.

Everything here is elementary or reduces to the exponential integral E1 and
the error function.  Conventions: space dimension 2, diffusivity 1, kernel

    Gamma(x, t) = exp(-|x|^2 / (4 t)) / (4 pi t)   for t > 0,   0 otherwise.

Time integrals are taken over a window (a, b] of the *retardation* t - s,
which is what piecewise-constant-in-time layer densities require.
"""

from __future__ import annotations

import numpy as np
from scipy.special import exp1

_FOUR_PI = 4.0 * np.pi


def gamma(dx: np.ndarray, dt) -> np.ndarray:
    """Heat kernel Gamma(dx, dt); exactly zero for dt <= 0 (causality).

    dx has shape (..., 2); dt broadcasts against dx[..., 0].
    """
    dx = np.asarray(dx, dtype=float)
    dt = np.asarray(dt, dtype=float)
    r2 = dx[..., 0] ** 2 + dx[..., 1] ** 2
    out = np.zeros(np.broadcast_shapes(r2.shape, dt.shape))
    pos = np.broadcast_to(dt > 0, out.shape)
    r2b = np.broadcast_to(r2, out.shape)[pos]
    dtb = np.broadcast_to(dt, out.shape)[pos]
    out[pos] = np.exp(-r2b / (4.0 * dtb)) / (_FOUR_PI * dtb)
    return out


def dnu_gamma(dx: np.ndarray, nu: np.ndarray, dt) -> np.ndarray:
    """Normal derivative of Gamma in its first argument, direction nu at x.

    For dx = x - y this is nu . grad_x Gamma = -(dx . nu) / (2 dt) * Gamma.
    Exactly zero for dt <= 0.
    """
    dx = np.asarray(dx, dtype=float)
    nu = np.asarray(nu, dtype=float)
    dt = np.asarray(dt, dtype=float)
    dot = dx[..., 0] * nu[..., 0] + dx[..., 1] * nu[..., 1]
    g = gamma(dx, dt)
    out = np.zeros_like(g)
    pos = np.broadcast_to(dt > 0, out.shape)
    out[pos] = -(np.broadcast_to(dot, out.shape)[pos] / (2.0 * np.broadcast_to(dt, out.shape)[pos])) * g[pos]
    return out


def gamma_time_integral(r2, a, b) -> np.ndarray:
    """integral of Gamma(x, u) du over u in (a, b], with r2 = |x|^2 >= 0.

    Equals (E1(r2/(4b)) - E1(r2/(4a))) / (4 pi); the a = 0 endpoint drops
    the second term.  At r2 = 0 with a > 0 the integrand is 1/(4 pi u) and
    the value is log(b/a)/(4 pi); r2 = 0 with a = 0 diverges.
    """
    r2 = np.asarray(r2, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    r2b, ab, bb = np.broadcast_arrays(r2, a, b)
    if np.any(bb < ab) or np.any(ab < 0):
        raise ValueError("need 0 <= a <= b")
    out = np.zeros(r2b.shape)
    zero_r = r2b <= 0
    if np.any(zero_r & (ab <= 0) & (bb > 0)):
        raise ValueError("time integral of Gamma diverges at r = 0, a = 0")
    m = zero_r & (ab > 0)
    out[m] = np.log(bb[m] / ab[m]) / _FOUR_PI
    m = ~zero_r & (bb > ab)
    upper = exp1(r2b[m] / (4.0 * bb[m]))
    with np.errstate(over="ignore"):
        lower = np.where(ab[m] > 0, exp1(np.where(ab[m] > 0, r2b[m] / (4.0 * np.maximum(ab[m], 1e-300)), 1.0)), 0.0)
    out[m] = (upper - lower) / _FOUR_PI
    return out


def dnu_gamma_time_integral(r2, dot_nu, a, b) -> np.ndarray:
    """integral of dnu_gamma over the retardation window (a, b].

    With d = dx . nu the integrand is -(d / (2 u)) Gamma(x, u), whose
    antiderivative in u is -(d / (2 pi r2)) * (-exp(-r2/(4u))) up to sign:

        integral = -(d / (2 pi r2)) [exp(-r2/(4b)) - exp(-r2/(4a))],

    with exp(-r2/(4a)) -> 0 as a -> 0.  Requires r2 > 0.
    """
    r2 = np.asarray(r2, dtype=float)
    dot_nu = np.asarray(dot_nu, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    r2b, db, ab, bb = np.broadcast_arrays(r2, dot_nu, a, b)
    if np.any(bb < ab) or np.any(ab < 0):
        raise ValueError("need 0 <= a <= b")
    if np.any((r2b <= 0) & (bb > ab)):
        raise ValueError("coincident points require self-term rule")
    out = np.zeros(r2b.shape)
    m = bb > ab
    eb = np.exp(-r2b[m] / (4.0 * bb[m]))
    ea = np.where(ab[m] > 0, np.exp(-r2b[m] / (4.0 * np.maximum(ab[m], 1e-300))), 0.0)
    out[m] = -db[m] / (2.0 * np.pi * r2b[m]) * (eb - ea)
    return out


def window_integrals(r2, windows, dot_nu=None):
    """Yield the integrals of Gamma, or of dnu_gamma, over groups of windows.

    r2 = |x|^2 > 0 has shape (..., M); windows is a sequence of (a, b)
    pairs of equal-length 1-D arrays with 0 <= a < b.  Group (a, b) yields
    an array of shape (..., len(a), M): window j fills [..., j, :] with the
    values gamma_time_integral(r2, a[j], b[j]) returns, or with dot_nu
    (d = dx . nu, broadcasting against r2) those of
    dnu_gamma_time_integral, bit for bit.  E1(r2/(4u)) or exp(-r2/(4u)) is
    evaluated once per distinct endpoint float u and dropped after the last
    group that uses it.
    """
    r2 = np.asarray(r2, dtype=float)
    if np.any(r2 <= 0):
        raise ValueError("window integrals need r2 > 0")
    windows = [(np.asarray(a, dtype=float), np.asarray(b, dtype=float)) for a, b in windows]
    last_use = {}
    for g, (a, b) in enumerate(windows):
        if a.shape != b.shape or a.ndim != 1 or np.any(a < 0) or np.any(b <= a):
            raise ValueError("need equal-length 1-D windows with 0 <= a < b")
        last_use.update(dict.fromkeys(a.tolist() + b.tolist(), g))
    expiring = [[] for _ in windows]
    for u, g in last_use.items():
        expiring[g].append(u)
    if dot_nu is None:
        shape = r2.shape
    else:
        coef = -np.asarray(dot_nu, dtype=float) / (2.0 * np.pi * r2)
        shape = coef.shape

    def endpoint(u):
        z = r2 / (4.0 * u)
        return exp1(z) if dot_nu is None else np.exp(-z)

    table = {0.0: 0.0}  # the a = 0 endpoint contributes nothing
    for g, (a, b) in enumerate(windows):
        out = np.empty(shape[:-1] + a.shape + shape[-1:])
        for j, (lo, hi) in enumerate(zip(a.tolist(), b.tolist())):
            for u in (lo, hi):
                if u not in table:
                    table[u] = endpoint(u)
            if dot_nu is None:
                out[..., j, :] = (table[hi] - table[lo]) / _FOUR_PI
            else:
                out[..., j, :] = coef * (table[hi] - table[lo])
        yield out
        for u in expiring[g]:
            del table[u]


def e1_entire_part(z) -> np.ndarray:
    """Entire remainder E1(z) + eulergamma + log(z), with value 0 at z = 0.

    Splitting off the logarithm isolates the singular factor of the
    time-integrated single-layer kernel so it can be handled by a
    log-aware quadrature rule.
    """
    z = np.asarray(z, dtype=float)
    if np.any(z < 0):
        raise ValueError("need z >= 0")
    out = np.zeros(z.shape)
    pos = z > 0
    zp = z[pos]
    with np.errstate(over="ignore", under="ignore"):
        e1 = np.where(zp < 700.0, exp1(np.minimum(zp, 700.0)), 0.0)
    out[pos] = e1 + np.euler_gamma + np.log(zp)
    return out


def log_quadrature_weights(M: int) -> np.ndarray:
    """Circulant weights R_k for periodic integrals against a log factor.

    For uniform nodes t_j = 2 pi j / M, the rule
        integral_0^{2pi} log(4 sin^2((t_i - t)/2)) f(t) dt
            ~= sum_j R_{(i-j) mod M} f(t_j)
    is exact for trigonometric polynomials up to the grid's bandwidth,
    because log(4 sin^2(t/2)) has Fourier coefficients -2 pi / |m|.
    """
    if M < 2:
        raise ValueError("need at least 2 nodes")
    m = np.abs(np.rint(np.fft.fftfreq(M, d=1.0 / M)).astype(int))
    symbol = np.zeros(M)
    symbol[m > 0] = -2.0 * np.pi / m[m > 0]
    weights = np.fft.ifft(symbol).real
    return weights
