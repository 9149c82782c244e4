"""Origin-centered minimum-volume enclosing ellipsoid.

Solves the convex program

    minimize  -log det X   subject to  p_i^T X p_i <= 1 for all columns p_i

through its dual, the D-optimal design problem
max log det M(u), M(u) = sum_i u_i p_i p_i^T over the unit simplex, whose
gradient is g_i = p_i^T M(u)^{-1} p_i.  The solve runs on a working set W
of columns, a core set (Kumar & Yildirim 2005) that starts at the k
successive-projection columns:

- inside W, a Khachiyan step (Frank-Wolfe with exact line search) raises
  the weight of each column with g_i > (1 + EPS) k, largest g first;
- equality-constrained Newton steps on log det M(u) then make g equal
  across the support {u_i > 0}; a step that would push a weight below
  zero stops at zero and drops that column (Todd & Yildirim 2007);
- pricing computes g over all n columns, adds up to max(50, 2k) of the
  columns that violate the certificate to W, and the solve repeats.

|W| stays near k to 2k, so each step costs O(|W| k^2 + k^3) and
refactorizes M(u) from the weights.  The primal solution is recovered as
X = M(u)^{-1} / k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lstsq

from ._errors import ConvergenceError
from .spa import spa_select

__all__ = ["Ellipsoid", "solve_mvee"]

# the certificate is max_i p_i^T M(u)^{-1} p_i <= (1 + EPS) k; a column is on
# the boundary when p^T X p >= 1 - TAU_ACTIVE, which is above EPS because the
# solve may leave boundary columns up to about EPS inside the ellipsoid
EPS = 1e-7
TAU_ACTIVE = 1e-5


@dataclass
class Ellipsoid:
    """Shape matrix X, dual simplex weights u, the boundary index set, and
    the solver's counters."""

    X: np.ndarray
    u: np.ndarray
    epsilon_achieved: float
    active: np.ndarray
    stats: dict = field(default_factory=dict)


def solve_mvee(P: np.ndarray, max_iter: int | None = None) -> Ellipsoid:
    """Origin-centered MVEE of the columns of the k x n matrix P.

    Terminates when max_i p_i^T M(u)^{-1} p_i <= (1 + EPS) * k on a fresh
    factorization, the equivalence-theorem certificate; -log det X is then
    within k*log(1+EPS) of optimal.  ``max_iter`` bounds the Khachiyan and
    Newton steps together.  ``active`` holds the columns with
    p^T X p >= 1 - TAU_ACTIVE, ascending.
    """
    P = np.asarray(P, dtype=np.float64)
    k, n = P.shape
    bad = np.flatnonzero(~np.isfinite(P).all(axis=0))
    if bad.size:
        raise ValueError(f"column {bad[0]} of P is not finite")
    if max_iter is None:
        max_iter = max(1000, int(100 * k * math.log(max(n, 2))))

    stats = {"pricing_rounds": 0, "iterations": 0, "khachiyan_steps": 0,
             "newton_steps": 0, "drop_steps": 0}
    bound = (1.0 + EPS) * k
    # the successive-projection pick of k columns spans R^k, and equal
    # weights on it are optimal for those k columns; spa_select raises
    # RankError when the columns do not span
    W = np.sort(spa_select(P, range(n), k))
    u = np.zeros(n)
    u[W] = 1.0 / k
    while True:
        stats["pricing_rounds"] += 1
        _solve_on(P, W, u, bound, max_iter, stats)
        # the certificate, on a fresh factorization over all n columns
        Minv = _inverse(P, u)
        g = _leverages(P, Minv)
        gap = float(g.max() / k - 1.0)
        if gap <= EPS:
            break
        new = np.setdiff1d(np.flatnonzero(g > bound), W)
        if stats["iterations"] >= max_iter or new.size == 0:
            # new is empty only when W passed its own check by a rounding
            # margin that this factorization does not repeat
            raise ConvergenceError(
                f"MVEE solver stopped after {stats['iterations']} iterations "
                f"with relative gap {gap:.3e} > {EPS:.1e} (support "
                f"{np.count_nonzero(u)}, working set {W.size} of {n} columns)",
                achieved=gap,
            )
        new = new[np.argsort(-g[new], kind="stable")[:max(50, 2 * k)]]
        W = np.union1d(W, new)

    stats.update(working_set=int(W.size), support=int(np.count_nonzero(u)),
                 gap=gap)
    X = Minv / k
    X = 0.5 * (X + X.T)
    active = np.flatnonzero(_leverages(P, X) >= 1.0 - TAU_ACTIVE)
    return Ellipsoid(X=X, u=u, epsilon_achieved=gap, active=active,
                     stats=stats)


def _inverse(P, u):
    """M(u)^{-1}, formed from the columns of the support only."""
    S = np.flatnonzero(u)
    PS = P[:, S]
    return np.linalg.inv((PS * u[S]) @ PS.T)


def _leverages(P, Minv):
    """g_i = p_i^T Minv p_i for every column of P."""
    return np.einsum("ij,ji->i", P.T @ Minv, P)


def _solve_on(P, W, u, bound, max_iter, stats):
    """Raise log det M(u) over the columns W (u changes in place) until
    every g_i with i in W is at most ``bound`` or the budget is spent."""
    k = P.shape[0]
    PW = P[:, W]
    while stats["iterations"] < max_iter:
        Minv = _inverse(P, u)
        g = _leverages(PW, Minv)
        order = np.argsort(-g, kind="stable")
        order = order[g[order] > bound]
        if order.size == 0:
            return
        for i in order:
            if stats["iterations"] >= max_iter:
                return
            # the first violator's g is current; later ones moved with the
            # steps before them
            gi = g[i] if i == order[0] else PW[:, i] @ Minv @ PW[:, i]
            if gi <= bound:
                continue
            beta = (gi - k) / (k * (gi - 1.0))
            u *= 1.0 - beta
            u[W[i]] += beta
            stats["khachiyan_steps"] += 1
            stats["iterations"] += 1
            Minv = _inverse(P, u)
        _newton(P, u, max_iter, stats)


def _newton(P, u, max_iter, stats):
    """Maximize log det M(u) over the weights of the current support.

    The step solves the KKT system of the quadratic model with sum(d) = 0;
    minus the Hessian is H_ij = (p_i^T M^{-1} p_j)^2.  It is damped to
    1/(1 + lambda) while the Newton decrement lambda is at least 1/4 (the
    self-concordant schedule), and cut short where a weight reaches zero,
    which drops that column.  Full steps end once the decrement no longer
    shrinks fourfold, which quadratic convergence guarantees until rounding
    takes over.
    """
    previous = np.inf
    while stats["iterations"] < max_iter:
        S = np.flatnonzero(u)
        PS = P[:, S]
        G = PS.T @ _inverse(P, u) @ PS
        H = G * G
        m = S.size
        K = np.ones((m + 1, m + 1))
        K[:m, :m] = H
        K[m, m] = 0.0
        # least squares, because K is singular when the p_i p_i^T of the
        # support are linearly dependent (repeated or opposite columns)
        d = lstsq(K, np.append(np.diag(G), 0.0), lapack_driver="gelsy",
                  check_finite=False)[0][:m]
        dec2 = float(d @ H @ d)
        full = dec2 < 1.0 / 16.0
        if dec2 == 0.0 or (full and dec2 > previous / 4.0):
            return
        t = 1.0 if full else 1.0 / (1.0 + math.sqrt(dec2))
        previous = dec2 if full else np.inf
        stats["newton_steps"] += 1
        stats["iterations"] += 1
        neg = np.flatnonzero(d < 0)
        limits = -u[S[neg]] / d[neg]
        drop = None
        if neg.size and limits.min() < t:
            a = int(np.argmin(limits))
            t, drop = limits[a], S[neg[a]]
            stats["drop_steps"] += 1
            previous = np.inf
        u[S] = np.maximum(u[S] + t * d, 0.0)
        if drop is not None:
            u[drop] = 0.0
        u /= u.sum()
