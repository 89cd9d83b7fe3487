"""Independent reference solutions used to validate the boundary solvers.

Both oracles target the unit-disk conductor and share nothing with the
boundary-integral code paths: one is a 1D radial Crank-Nicolson finite
difference scheme, the other a Bessel/Fourier eigenfunction series for the
disk's Neumann Green function.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs
from scipy.special import jn, jnp_zeros


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
    returns u(R, t) linearly interpolated to the requested times.
    """
    times = np.asarray(times, dtype=float)
    n = int(round(radius / dr))
    r = np.linspace(0.0, radius, n + 1)
    nsteps = int(np.ceil(times.max() / dt))
    u = np.zeros(n + 1)

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
    factors = dgttrf(-0.5 * dt * lower[1:], 1.0 - 0.5 * dt * diag, -0.5 * dt * upper[:-1])
    if factors[-1] != 0:
        raise np.linalg.LinAlgError("singular Crank-Nicolson matrix")

    out_t = np.arange(nsteps + 1) * dt
    trace = np.zeros(nsteps + 1)
    half = 0.5 * dt
    for step in range(nsteps):
        rhs = u + half * (
            np.concatenate(([diag[0] * u[0] + upper[0] * u[1]],
                            lower[1:n] * u[0:n - 1] + diag[1:n] * u[1:n] + upper[1:n] * u[2:],
                            [lower[n] * u[n - 1] + diag[n] * u[n]]))
        )
        rhs += dt * bflux * (np.arange(n + 1) == n)
        u, _ = dgttrs(*factors[:-1], rhs)
        trace[step + 1] = u[n]
    return np.interp(times, out_t, trace)


@lru_cache(maxsize=8)
def _neumann_modes(n_ang: int, n_rad: int):
    """Roots of J_m' and the L2(disk) norms of the Neumann eigenfunctions.

    Eigenfunctions J_m(alpha r)(cos|sin)(m theta) on the unit disk with
    J_m'(alpha) = 0; squared norms are pi (1 - m^2/alpha^2) J_m(alpha)^2
    (doubled for m = 0).
    """
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
