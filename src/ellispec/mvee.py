"""Origin-centered minimum-volume enclosing ellipsoid.

Solves the convex program

    minimize  -log det X   subject to  p_i^T X p_i <= 1 for all columns p_i

through its dual, the D-optimal design problem
max log det M(u), M(u) = sum_i u_i p_i p_i^T over the unit simplex,
by Frank-Wolfe iterations with Khachiyan's step size.  Away (weight
decrease) steps are taken when they reduce the duality gap faster, which
is what makes tolerances near 1e-7 reachable in a few thousand
iterations.  The primal solution is recovered as X = M(u)^{-1} / k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._errors import ConvergenceError
from .spa import spa_select

__all__ = ["Ellipsoid", "solve_mvee", "active_indices"]

DEFAULT_EPS = 1e-7
DEFAULT_TAU_ACTIVE = 1e-5
REFACTOR_PERIOD = 50


@dataclass
class Ellipsoid:
    """Shape matrix X, dual simplex weights u, and the boundary index set."""

    X: np.ndarray
    u: np.ndarray
    epsilon_achieved: float
    active: np.ndarray


def solve_mvee(P: np.ndarray, eps: float = DEFAULT_EPS,
               tau_active: float = DEFAULT_TAU_ACTIVE,
               max_iter: int | None = None) -> Ellipsoid:
    """Origin-centered MVEE of the columns of the k x n matrix P.

    Terminates when max_i p_i^T M(u)^{-1} p_i <= (1 + eps) * k, the
    equivalence-theorem certificate; -log det X is then within
    k*log(1+eps) of optimal.
    """
    P = np.asarray(P, dtype=np.float64)
    k, n = P.shape
    if eps <= 0:
        raise ValueError("eps must be positive")
    if max_iter is None:
        max_iter = max(1000, int(100 * k * math.log(max(n, 2))))

    # the successive-projection pick of k columns spans R^k (a core-set
    # start); it raises RankError when the columns do not
    u = np.zeros(n)
    u[spa_select(P, range(n), k)] = 1.0 / k

    def factorize(u):
        M = (P * u[None, :]) @ P.T
        return np.linalg.inv(M)

    Minv = factorize(u)
    g = np.einsum("ij,ji->i", P.T @ Minv, P)

    iterations = 0
    while iterations < max_iter:
        j_add = int(np.argmax(g))
        g_add = g[j_add]
        if g_add / k - 1.0 <= eps:
            break
        iterations += 1

        # candidate away step: smallest g over the current support
        sup = np.flatnonzero(u > 0)
        j_away = int(sup[np.argmin(g[sup])])
        g_away = g[j_away]

        if g_add - k >= k - g_away:
            j, gj = j_add, g_add
            beta = (gj - k) / (k * (gj - 1.0))
        else:
            j, gj = j_away, g_away
            beta = (gj - k) / (k * (gj - 1.0))
            # cannot push u_j below zero
            beta = max(beta, -u[j] / (1.0 - u[j]))
            if beta == 0.0:
                j, gj = j_add, g_add
                beta = (gj - k) / (k * (gj - 1.0))

        u *= 1.0 - beta
        u[j] += beta
        u[u < 0] = 0.0

        if iterations % REFACTOR_PERIOD == 0:
            Minv = factorize(u)
            g = np.einsum("ij,ji->i", P.T @ Minv, P)
        else:
            # rank-one update of M(u)^{-1} after M <- (1-b) M + b p p^T
            p = P[:, j]
            Mp = Minv @ p
            denom = (1.0 - beta) + beta * (p @ Mp)
            Minv = (Minv - (beta / denom) * np.outer(Mp, Mp)) / (1.0 - beta)
            PtMp = P.T @ Mp
            g = (g - (beta / denom) * PtMp**2) / (1.0 - beta)

    # the certificate is checked on a fresh factorization, not on the
    # rank-one updated inverse
    Minv = factorize(u)
    g = np.einsum("ij,ji->i", P.T @ Minv, P)
    gap = float(g.max() / k - 1.0)
    if gap > eps:
        raise ConvergenceError(
            f"MVEE solver stopped after {iterations} iterations with "
            f"relative gap {gap:.3e} > {eps:.1e}",
            achieved=gap,
        )
    X = Minv / k
    X = 0.5 * (X + X.T)
    ell = Ellipsoid(X=X, u=u, epsilon_achieved=gap,
                    active=np.array([], dtype=np.int64))
    ell.active = active_indices(ell, P, tau_active)
    return ell


def active_indices(ellipsoid: Ellipsoid, P: np.ndarray,
                   tau_active: float = DEFAULT_TAU_ACTIVE) -> np.ndarray:
    """Indices of columns lying on the ellipsoid boundary, ascending.

    A column is active when p^T X p >= 1 - tau_active.
    """
    vals = np.einsum("ij,ji->i", P.T @ ellipsoid.X, P)
    return np.flatnonzero(vals >= 1.0 - tau_active).astype(np.int64)
