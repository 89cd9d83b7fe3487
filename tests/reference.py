"""Reference realizations that only the tests compare against.

Each shares nothing with the code path it checks: the disk's Neumann Green
function as a Bessel/Fourier eigenfunction series (scipy.special), and the
dual of the virtual measurement map as the Gram-weighted transpose of its
assembled matrix.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.special import jn, jnp_zeros

from heatcavity.ndmap import SpaceTimeOperator


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


def lprime_from_duality(L_op: SpaceTimeOperator) -> SpaceTimeOperator:
    """Dual of the virtual measurement map in the weighted inner products.

    Independent realization of the backward-projection operator: instead
    of time-reversing cavity-flux solves, transpose the assembled forward
    map against the Gram weights.
    """
    g_dom = L_op.gram_domain
    g_cod = L_op.gram_codomain
    mat = (L_op.matrix * g_cod[:, None]).T / g_dom[:, None]
    return SpaceTimeOperator(mat, g_cod, g_dom)
