"""Independent reference solutions used to validate the boundary solvers.

Both oracles target the unit-disk conductor and share nothing with the
boundary-integral code paths: one is a 1D radial Crank-Nicolson finite
difference scheme, the other a Bessel/Fourier eigenfunction series for the
disk's Neumann Green function.  The radial scheme solves its tridiagonal
steps with numpy's own LAPACK, bound in recon, or with scipy's wrappers of
the same routines where numpy's library does not export them; the Green
series imports scipy.special when called.  Importing this module loads no
scipy.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import recon


def radial_disk_trace(
    times: np.ndarray,
    radius: float = 1.0,
    flux: float = 1.0,
    dr: float = 1e-3,
    dt: float = 1e-4,
) -> np.ndarray:
    """Boundary temperature of the disk under spatially uniform unit flux.

    Crank-Nicolson in time on the radial heat equation
    u_t = u_rr + u_r / r with u_r(R) = flux, u_r(0) = 0 (symmetry), u(.,0)=0;
    returns u(R, t) linearly interpolated to the requested times.  Raises
    ValueError, naming the argument, for empty times, a time that is not
    finite, no positive time, a dr or dt that is not positive, or a dr that
    does not divide radius.  Before t = 0 the trace is 0.
    """
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        raise ValueError("times is empty")
    if not (np.isfinite(times).all() and times.max() > 0):
        raise ValueError(f"times must be finite with a positive maximum, got max {times.max()}")
    if not (dr > 0 and dt > 0):
        raise ValueError(f"dr and dt must be positive, got dr={dr}, dt={dt}")
    steps = np.rint(radius / dr)
    if not (steps >= 1 and abs(radius / dr - steps) <= 1e-9):  # nan too
        raise ValueError(f"dr={dr} does not divide radius={radius} into whole steps")
    n = int(steps)
    r = np.linspace(0.0, radius, n + 1)
    nsteps = int(np.ceil(times.max() / dt))

    # second-order operator A u := u_rr + u_r / r with one-sided closures:
    # at r=0, u_rr + u_r/r -> 2 u_rr by symmetry; at r=R a ghost node
    # carries the Neumann flux.
    lower = np.zeros(n + 1)
    diag = np.zeros(n + 1)
    upper = np.zeros(n + 1)
    inv_dr2 = 1.0 / dr**2
    diag[0], upper[0] = -4.0 * inv_dr2, 4.0 * inv_dr2
    ri = r[1:n]
    lower[1:n] = inv_dr2 - 1.0 / (2 * dr * ri)
    diag[1:n] = -2.0 * inv_dr2
    upper[1:n] = inv_dr2 + 1.0 / (2 * dr * ri)
    # ghost: u_{n+1} = u_{n-1} + 2 dr flux
    lower[n] = 2.0 * inv_dr2
    diag[n] = -2.0 * inv_dr2
    bflux = (2.0 * inv_dr2 * dr + 1.0 / radius) * flux  # constant forcing at r=R

    # (I - dt/2 A) u+ = (I + dt/2 A) u + dt forcing; the constant
    # tridiagonal left side is LU-factored once, by the same elimination a
    # tridiagonal solve repeats every step, so the steps keep their bits
    dl, d, du = -0.5 * dt * lower[1:], 1.0 - 0.5 * dt * diag, -0.5 * dt * upper[:-1]
    forcing = dt * bflux * (np.arange(n + 1) == n)
    half = 0.5 * dt
    trace = np.zeros(nsteps + 1)
    # u is the right-hand side of each step and, solved in place, its result
    u, au, term = np.zeros(n + 1), np.empty(n + 1), np.empty(n - 1)
    lapack = recon._lapack()
    if lapack is None:
        from scipy.linalg.lapack import dgttrf, dgttrs

        *factors, info = dgttrf(dl, d, du)
        if info != 0:
            raise np.linalg.LinAlgError("singular Crank-Nicolson matrix")

        def solve():
            u[:] = dgttrs(*factors, u)[0]

    else:
        du2, ipiv = np.empty(n - 1), np.empty(n + 1, dtype=np.int64)
        try:
            recon._call(lapack, "gttrf", n + 1, dl, d, du, du2, ipiv)
        except np.linalg.LinAlgError:
            raise np.linalg.LinAlgError("singular Crank-Nicolson matrix") from None
        solve = recon._bind(lapack, "gttrs", b"N", n + 1, 1, dl, d, du, du2, ipiv, u, n + 1)

    for step in range(nsteps):
        # u + dt/2 A u + forcing, each sum in the order of the formula
        np.multiply(lower[1:n], u[0 : n - 1], out=au[1:n])
        au[1:n] += np.multiply(diag[1:n], u[1:n], out=term)
        au[1:n] += np.multiply(upper[1:n], u[2:], out=term)
        au[0] = diag[0] * u[0] + upper[0] * u[1]
        au[n] = lower[n] * u[n - 1] + diag[n] * u[n]
        au *= half
        u += au
        u += forcing
        solve()
        trace[step + 1] = u[n]
    return np.interp(times, np.arange(nsteps + 1) * dt, trace)


@lru_cache(maxsize=8)
def _neumann_modes(n_ang: int, n_rad: int):
    """Roots of J_m' and the L2(disk) norms of the Neumann eigenfunctions.

    Eigenfunctions J_m(alpha r)(cos|sin)(m theta) on the unit disk with
    J_m'(alpha) = 0; squared norms are pi (1 - m^2/alpha^2) J_m(alpha)^2
    (doubled for m = 0).
    """
    from scipy.special import jn, jnp_zeros

    alphas, norms, orders = [], [], []
    for m in range(n_ang + 1):
        roots = jnp_zeros(m, n_rad)
        if m == 0:
            roots = np.concatenate(([0.0], roots[:-1]))
        for alpha in roots:
            if alpha == 0.0:
                nrm2 = np.pi  # constant mode J_0(0) = 1, area pi
            else:
                nrm2 = (np.pi if m > 0 else 2 * np.pi) * 0.5 * (
                    1.0 - m**2 / alpha**2
                ) * jn(m, alpha) ** 2
            alphas.append(alpha)
            norms.append(nrm2)
            orders.append(m)
    return np.array(alphas), np.array(norms), np.array(orders)


def disk_green(
    x: np.ndarray,
    t,
    y,
    n_modes: int = 50,
) -> np.ndarray:
    """Neumann Green function of the unit disk, pole at (y, time 0).

    Eigenfunction series G(x,t;y) = sum_k e^{-alpha_k^2 t} phi_k(x) phi_k(y)
    / ||phi_k||^2 with n_modes angular and radial modes each.  Accurate for
    t not too small (the series needs e^{-alpha^2 t} decay).
    """
    from scipy.special import jn

    x = np.atleast_2d(np.asarray(x, dtype=float))
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    alphas, norms, orders = _neumann_modes(n_modes, n_modes)
    rx = np.hypot(x[:, 0], x[:, 1])
    thx = np.arctan2(x[:, 1], x[:, 0])
    ry = np.hypot(y[0], y[1])
    thy = np.arctan2(y[1], y[0])
    # radial factors (points x modes)
    jx = jn(orders[None, :], alphas[None, :] * rx[:, None])
    jy = jn(orders, alphas * ry)
    ang = np.cos(orders[None, :] * (thx[:, None] - thy))
    damp = np.exp(-np.square(alphas)[None, :] * np.atleast_1d(t)[:, None])  # (K, modes)
    series = (jx[:, None, :] * ang[:, None, :]) * (jy / norms)[None, None, :] * damp[None, :, :]
    out = series.sum(axis=2)
    if np.ndim(t) == 0:
        out = out[:, 0]
    return out
