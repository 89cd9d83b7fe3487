"""Independent reference solution used to validate the boundary solver.

The oracle targets the unit-disk conductor and shares nothing with the
boundary-integral code paths: a 1D radial Crank-Nicolson finite difference
scheme for the boundary temperature under uniform flux.  It solves its
tridiagonal steps with numpy's own LAPACK, bound in recon, or with scipy's
wrappers of the same routines where numpy's library does not export them.
Importing this module loads no scipy.
"""

from __future__ import annotations

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
