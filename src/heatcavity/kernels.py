"""Closed-form heat-kernel quantities used by the boundary-integral solvers.

Everything here is elementary or reduces to the exponential integral E1 and
the error function.  Conventions: space dimension 2, diffusivity 1, kernel

    Gamma(x, t) = exp(-|x|^2 / (4 t)) / (4 pi t)   for t > 0,   0 otherwise.

Time integrals are taken over a window (a, b] of the *retardation* t - s,
which is what piecewise-constant-in-time layer densities require.
"""

from __future__ import annotations

import math

import numpy as np

_FOUR_PI = 4.0 * np.pi

#: Power series of E1(z) + log(z) = -eulergamma + sum_k (-1)^(k+1) z^k/(k k!)
#: for z < 1, highest power first; the first omitted term is below 1e-18.
_E1_SERIES = [(-1) ** (k + 1) / (k * math.factorial(k)) for k in range(18, 0, -1)] + [-np.euler_gamma]

#: g(z) = z exp(z) E1(z) on the octaves [2^k, 2^(k+1)), k = 0..3: column k
#: holds the monomial coefficients (row j for t^j) of the degree-20
#: Chebyshev interpolant in t = z / 2^(k-1) - 3 on [-1, 1), computed with
#: mpmath at 50 digits and rounded to double (interpolation error below 3e-18).
_E1_OCTAVES = np.array([
    [0.6723850039373744, 0.7862512207659554, 0.8716057754033214, 0.9279135976670307],
    [0.060320836614478686, 0.048334961021273964, 0.033746809274416485, 0.020958923223799955],
    [-0.012221040518265789, -0.011457316028370421, -0.009051265591143024, -0.006139755107712828],
    [0.0026722108942347678, 0.0028244809960604935, 0.0024708100659039623, 0.0018109318567091721],
    [-0.0006205521421877133, -0.0007194029193596529, -0.0006849409098904585, -0.0005374751553163403],
    [0.0001511289106777592, 0.00018829873304355456, 0.00019245316009971626, 0.00016043006854214693],
    [-3.8227685985642014e-05, -5.0427869571101516e-05, -5.472086106982386e-05, -4.8136670674799356e-05],
    [9.969588548180524e-06, 1.3769260849000943e-05, 1.5723117524348755e-05, 1.4512551968092536e-05],
    [-2.6657079956813538e-06, -3.822318887409779e-06, -4.560071887335749e-06, -4.394640773707223e-06],
    [7.276357666213239e-07, 1.0762406264191608e-06, 1.3335646218105963e-06, 1.3361822532256474e-06],
    [-2.020828081619863e-07, -3.0678386096004464e-07, -3.9290853861640454e-07, -4.077930878547149e-07],
    [5.695542769339487e-08, 8.83970203772645e-08, 1.1654858670999693e-07, 1.2489946421234502e-07],
    [-1.6254705298790178e-08, -2.5710624972737223e-08, -3.47795980718017e-08, -3.8375219050020675e-08],
    [4.684074369181094e-09, 7.530754105507387e-09, 1.0420331265915521e-08, 1.1805554247377149e-08],
    [-1.364215278172933e-09, -2.2249761649390667e-09, -3.142200114764984e-09, -3.648273529832946e-09],
    [4.0793286472361166e-10, 6.744923662441185e-10, 9.719083678786711e-10, 1.1572182338031151e-09],
    [-1.2077029365436508e-10, -2.019186241444875e-10, -2.9578516972018957e-10, -3.595513951620565e-10],
    [3.0208420887769406e-11, 5.0650535918150265e-11, 7.443622589904031e-11, 9.066373575625541e-11],
    [-9.017266770241648e-12, -1.526167313489042e-11, -2.2752188099266884e-11, -2.8235179285489934e-11],
    [5.276187250132912e-12, 9.118259740498745e-12, 1.4056685615395111e-11, 1.828121836541202e-11],
    [-1.6036848330912205e-12, -2.790257257413404e-12, -4.347645908766696e-12, -5.737346583012604e-12],
])

#: Terms of the continued fraction E1(z) = exp(-z) / (z + 1 - 1/(z + 3 - 4/(z + 5 - ...)))
#: used for z >= 16, where 12 terms leave a relative error below 2^-56.
_E1_FRACTION_TERMS = 12


def exp1(z) -> np.ndarray:
    """Exponential integral E1(z) for real z >= 0, elementwise.

    Three branches (cf. Cody and Thacher, Math. Comp. 22, 1968): the power
    series for z < 1, exp(-z)/z times a per-octave polynomial fit of
    z exp(z) E1(z) for 1 <= z < 16, and the continued fraction beyond.
    E1(0) is inf; values past z ~ 701.8 are subnormal and past ~738.5 are 0.
    Within about 5 ulp of mpmath.e1 wherever the result is normal; each
    element's value does not depend on the rest of the array.
    """
    z = np.asarray(z, dtype=float)
    out = np.empty(z.shape)
    small = z < 1.0
    far = z >= 16.0
    mid = ~(small | far)

    x = z[small]
    acc = np.full(x.shape, _E1_SERIES[0])
    for c in _E1_SERIES[1:]:
        acc *= x
        acc += c
    with np.errstate(divide="ignore"):
        out[small] = acc - np.log(x)

    x = z[mid]
    mant, expo = np.frexp(x)  # x = mant * 2^expo, mant in [0.5, 1)
    t = 4.0 * mant - 3.0
    octave = expo - 1
    acc = _E1_OCTAVES[-1].take(octave)
    for row in _E1_OCTAVES[-2::-1]:
        acc *= t
        acc += row.take(octave)
    out[mid] = np.exp(-x) * (acc / x)

    x = z[far]
    f = x + (2 * _E1_FRACTION_TERMS + 1)
    for k in range(_E1_FRACTION_TERMS, 0, -1):
        f = (x + (2 * k - 1)) - (k * k) / f
    out[far] = np.exp(-x) / f
    return out


def gamma(dx: np.ndarray, dt) -> np.ndarray:
    """Heat kernel Gamma(dx, dt); exactly zero for dt <= 0 (causality).

    dx has shape (..., 2); dt broadcasts against dx[..., 0].
    """
    dx = np.asarray(dx, dtype=float)
    dt = np.asarray(dt, dtype=float)
    r2 = dx[..., 0] ** 2 + dx[..., 1] ** 2
    # entries at dt <= 0 may overflow or divide by zero; np.where drops them
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        val = np.exp(-r2 / (4.0 * dt)) / (_FOUR_PI * dt)
    return np.where(dt > 0, val, 0.0)


def dnu_gamma(dx: np.ndarray, nu: np.ndarray, dt) -> np.ndarray:
    """Normal derivative of Gamma in its first argument, direction nu at x.

    For dx = x - y this is nu . grad_x Gamma = -(dx . nu) / (2 dt) * Gamma.
    Exactly zero for dt <= 0.
    """
    dx = np.asarray(dx, dtype=float)
    nu = np.asarray(nu, dtype=float)
    dt = np.asarray(dt, dtype=float)
    dot = dx[..., 0] * nu[..., 0] + dx[..., 1] * nu[..., 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        val = -(dot / (2.0 * dt)) * gamma(dx, dt)
    return np.where(dt > 0, val, 0.0)


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
    """Yield the integral of Gamma, or of dnu_gamma, over each window.

    r2 = |x|^2 > 0 has shape (..., M); windows is a sequence of (a, b)
    floats with 0 <= a < b.  Window (a, b) yields the values
    gamma_time_integral(r2, a, b) returns, or with dot_nu (d = dx . nu,
    broadcasting against r2) those of dnu_gamma_time_integral(r2, d, a, b),
    bit for bit.  E1(r2/(4u)) or exp(-r2/(4u)) is evaluated once per
    distinct endpoint float u and dropped after the last window that uses it.
    """
    r2 = np.asarray(r2, dtype=float)
    if np.any(r2 <= 0):
        raise ValueError("window integrals need r2 > 0")
    windows = [(float(a), float(b)) for a, b in windows]
    last_use = {}
    for j, (a, b) in enumerate(windows):
        if not 0.0 <= a < b:
            raise ValueError("need windows with 0 <= a < b")
        last_use[a] = last_use[b] = j
    expiring = [[] for _ in windows]
    for u, j in last_use.items():
        expiring[j].append(u)
    if dot_nu is not None:
        coef = -np.asarray(dot_nu, dtype=float) / (2.0 * np.pi * r2)

    def endpoint(u):
        z = r2 / (4.0 * u)
        return exp1(z) if dot_nu is None else np.exp(-z)

    table = {0.0: 0.0}  # the a = 0 endpoint contributes nothing
    for j, (a, b) in enumerate(windows):
        for u in (a, b):
            if u not in table:
                table[u] = endpoint(u)
        diff = table[b] - table[a]
        yield diff / _FOUR_PI if dot_nu is None else coef * diff
        for u in expiring[j]:
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
