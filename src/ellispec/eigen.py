"""Bottom-k eigenpairs of the normalized Laplacian (the embedding stage).

L = I - D^{-1/2} W D^{-1/2} is block diagonal over the connected
components, so its spectrum is the union of theirs, and each component
adds one null pair: eigenvalue 0 and its sqrt(d) vector.  The solve is one
loop over the components; a connected graph is the one-component case,
solved on W itself with no copy.  Each component goes through dense
symmetric ``eigh`` on its L, formed for that call only, up to a size
threshold, and through ARPACK on the products x + dinv * (W @ (dinv * x))
above it, that is on I + S = 2I - L.  A dense W is exactly symmetric (the
graph checks it), so each product reads one triangle of it through the
BLAS kernel ``dsymv``, with no copy; a CSR W is multiplied as stored.  A
component solved by ``eigh`` keeps eigh's own null vector; one solved by
ARPACK keeps the exact sqrt(d) vector deflated from its operator.  Every
null eigenvalue is reported as exactly 0.0.

Always retrieves k+1 eigenpairs, and certifies all of them: the (k+1)th
pair bounds the eigengap, and every record reports its lambda_next.
ARPACK stops a Ritz pair theta once its residual is at most RESIDUAL_TOL *
|theta|.  On S = I - L the (k+1)th Ritz value of a dense graph is only
0.02-0.03, so that rule drove the (k+1)th pair to residuals near 1e-12,
far below the 1e-8 that ``_validate`` asks for, at the cost of extra
products.  The wanted Ritz values of I + S lie in [1, 2], so the same
relative rule there bounds every pair's residual by 2 * RESIDUAL_TOL.
ARPACK operator products by operator and tolerance (one BLAS thread;
synthetic graphs synth_adjacency(sizes, delta, seed), the n = 10,000 ones
being the full balanced and unbalanced suites at generator seed 0, and the
kNN graph of the knn-sparse benchmark's first dataset; the labels from
group_columns were equal in every column, and lambda_{k+1} moved by at
most 7e-15):

  graph                             S, 1e-10   S, 1e-8   I + S, 3e-9
  n=3000  k=15  delta=0.3 seed 0       213        179        165
  n=4000  k=40  delta=0.6 seed 1       219        195        196
                          seed 2       238        197        197
                          seed 3       238        196        195
  kNN n=5000 k=25         seed 1       169        156        156
                          seed 2       157        142        142
  n=10000 k=50  delta=0.1              255        227        200
                delta=0.5              342        289        262
  n=10000 k=143 delta=0.1              491        555        553
                delta=0.5              812        795        787

A looser stop changes ARPACK's restarts, so products need not fall with
it: the unbalanced suite at delta 0.1 takes 488 at 1e-9 on S, 555 at
5e-9 and 1e-8.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np
import scipy.linalg
import scipy.sparse.linalg
from scipy.linalg.blas import dsymv

from ._errors import ConvergenceError, InvalidGraphError
from .graph import WeightedGraph, _components

__all__ = ["Embedding", "bottom_k_eigs"]

# Dense eigh on a connected component of up to this many nodes, ARPACK on
# a larger one; a disconnected graph is solved one component at a time,
# so the cutoff applies to each component, not to the whole graph.  Times
# on synth_adjacency([n // k] * k, delta, 1), median of 5 solves, one
# OpenBLAS thread on a 2-vCPU Xeon VM, ARPACK reading one triangle of W per
# product (dsymv).  eigh / ARPACK in ms, delta 0.3 then 1.0:
#   n = 1000  k = 10: 120/67, 122/85    k = 20: 125/48, 117/57
#   n = 1200  k = 10: 189/95, 196/85    k = 20: 193/70, 202/81
#   n = 1500  k = 10: 380/138, 373/167  k = 20: 403/103, 411/147
#   n = 2000  k = 10: 900/318, 884/273  k = 20: 908/196, 882/224
# ARPACK wins at n = 1000 as well.  With a cutoff of 300 the desk-sweep
# benchmark's label digests are unchanged and its elli_cluster_s falls
# from 0.085-0.094 to 0.038-0.040 s (seeds 1-2).  The cutoff stays at 1000
# only because ARPACK can silently miss copies of a repeated eigenvalue
# (the xfail torus and cycle cases in tests/test_eigen.py), and a lower
# cutoff would expose components of n <= 1000 nodes to that fault.  A
# guard that deflates the k+1 pairs found and asks ARPACK for one more
# catches both cases, but costs 58-85 % (tol 1e-4) to 130-190 % (tol 1e-10)
# of the solve's matvecs on synthetic graphs of n = 1200-4000.
DENSE_THRESHOLD = 1000
# ARPACK's relative tolerance on I + S: every pair it returns has a
# residual of at most 2 * 3e-9 = 6e-9, inside the 1e-8 that _validate
# certifies.  The measured products are in the module docstring: against
# the 1e-10 on S used before, 213 -> 165 at n = 3000, k = 15, 342 -> 262
# and 255 -> 200 on the full balanced suite, 169 -> 156 on a kNN graph.
# Plain S at 1e-8 leaves no margin under 1e-8, and takes 14-27 more
# products than this on the first three of those, as many on the last.
RESIDUAL_TOL = 3e-9
KERNEL_SHIFT = 3.0  # moves the eigenvalue 2 of I + S to -1, below its spectrum [0, 2]


@dataclass
class Embedding:
    """k x n matrix whose rows are the bottom-k eigenvectors.

    Column ell holds the coordinates of node ell in R^k.  Rows are
    orthonormal; ``lambda_next`` is the (k+1)th smallest eigenvalue.  The
    first c rows are the null vectors of the c connected components, one
    per component and zero outside it, at eigenvalue exactly 0.0: eigh's
    own null vector for a component solved by eigh, the exact unit sqrt(d)
    vector for one solved by ARPACK.  ``stats`` holds the solver's
    counters: ``method`` ("arpack" when any connected component went
    through ARPACK, else "eigh"), ``components`` (how many connected
    components were solved), ``matvecs`` (ARPACK operator products summed
    over the components, 0 for eigh), ``worst_residual`` (largest
    ||L v - lambda v|| over the k pairs), ``residual_next`` (that of the
    (k+1)th pair, certified like the k), ``lambda_k``, ``lambda_next``
    and ``subspace_bound``: the eigengap bound worst_residual /
    (lambda_next - lambda_k) on how far the computed eigenspace may lie
    from the exact one (Davis-Kahan).
    """

    P: np.ndarray
    eigenvalues: np.ndarray
    lambda_next: float
    stats: dict = field(default_factory=dict)


def _validate(P, vals, w, dinv, tol=1e-8):
    """The eigen-residual of each row of P, after checking that the rows
    are orthonormal; ConvergenceError when either exceeds ``tol``."""
    m = P.shape[0]
    off = float(np.abs(P @ P.T - np.eye(m)).max())
    if off > tol:
        raise ConvergenceError("eigenvector rows are not orthonormal",
                               achieved=off)
    x = P.T
    resid = x - dinv[:, None] * (w @ (dinv[:, None] * x)) - x * vals[None, :]
    norms = np.linalg.norm(resid, axis=0)
    worst = float(norms.max())
    if worst > tol:
        raise ConvergenceError(
            f"eigen-residual {worst:.3e} exceeds {tol:.1e}", achieved=worst
        )
    return norms


def _arpack_eigs(w, d, m):
    """ARPACK on I + S = 2I - L, with S = D^{-1/2} W D^{-1/2}, for the m+1
    smallest pairs of L on one connected component with adjacency ``w`` and
    degrees ``d``; returns (eigenvalues in ascending order, eigenvectors,
    matvecs).

    The null pair of L is known exactly: eigenvalue 0 and the unit sqrt(d)
    vector zv.  It is moved out of ARPACK's way, from 2 to 2 - KERNEL_SHIFT,
    below the spectrum of I + S, and put first in the result as it is.
    """
    n = d.size
    root = np.sqrt(d)
    dinv = 1.0 / root
    # zv's norm and z^T x are summed one term at a time in node order: a
    # BLAS dot sums in its own blocked order, whose rounding moves ARPACK's
    # iterates (P by up to 2e-13 on kNN and synthetic graphs)
    zv = root / np.sqrt(np.cumsum(d)[-1])
    # a dense W is symmetric: dsymv reads one triangle of it, through the
    # Fortran-ordered view w.T, so nothing is copied
    product = (partial(dsymv, 1.0, w.T) if isinstance(w, np.ndarray)
               else w.__matmul__)
    matvecs = 0

    def matvec(x):
        nonlocal matvecs
        matvecs += 1
        x = x.ravel()
        proj = zv * np.cumsum(zv * x)[-1]
        return x + dinv * product(dinv * x) - KERNEL_SHIFT * proj

    op = scipy.sparse.linalg.LinearOperator((n, n), matvec=matvec,
                                            dtype=np.float64)
    v0 = np.random.default_rng(0x5EED).standard_normal(n)
    try:
        theta, vecs = scipy.sparse.linalg.eigsh(op, k=m, which="LA",
                                                v0=v0, tol=RESIDUAL_TOL)
    except scipy.sparse.linalg.ArpackNoConvergence as exc:
        done, found = len(exc.eigenvalues), exc.eigenvectors
        message = (f"ARPACK converged {done} of {m} eigenpairs "
                   f"within its iteration budget ({matvecs} matvecs)")
        worst = None
        if done:
            resid = np.column_stack([matvec(v) for v in found.T])
            worst = float(np.linalg.norm(resid - found * exc.eigenvalues,
                                         axis=0).max())
            message += f"; worst residual of those: {worst:.3e}"
        raise ConvergenceError(message, achieved=worst) from exc
    vals = 2.0 - theta
    order = np.argsort(vals)
    return (np.r_[0.0, vals[order]], np.column_stack([zv, vecs[:, order]]),
            matvecs)


def _solve(w, d, m):
    """The m+1 smallest pairs of L on one connected component with
    adjacency ``w`` and degrees ``d``, null pair first, as (eigenvalues in
    ascending order, eigenvectors, matvecs).  Up to DENSE_THRESHOLD nodes,
    dense ``eigh`` on I - S, formed in place in one array that eigh may
    overwrite, whose pair 0 is kept as computed; ARPACK above."""
    n = d.size
    if n > DENSE_THRESHOLD:
        return _arpack_eigs(w, d, m)
    dinv = 1.0 / np.sqrt(d)
    s = (w if isinstance(w, np.ndarray) else w.toarray()) * dinv[:, None]
    s *= -dinv[None, :]
    s.flat[::n + 1] += 1.0
    vals, vecs = scipy.linalg.eigh(s, subset_by_index=[0, m], overwrite_a=True)
    return vals, vecs, 0


def bottom_k_eigs(graph: WeightedGraph, k: int) -> Embedding:
    """Compute the k smallest eigenpairs of the graph's normalized
    Laplacian plus the (k+1)th eigenvalue, all k+1 pairs certified.

    One loop over the c connected components (see the module docstring).
    A component of n_i nodes is asked for its null pair and its
    min(n_i - 1, k+1-c) smallest nonzero pairs.  The c null pairs come
    first, each at eigenvalue exactly 0; then the k+1-c smallest nonzero
    eigenvalues over all components, ties going to the lower component,
    each vector scattered into its component's rows.

    Raises InvalidGraphError when the graph has more than k connected
    components: the eigenvalue 0 then has multiplicity above k.  Raises
    ConvergenceError when the k+1 vectors are not orthonormal to 1e-8, or
    a pair's residual exceeds 1e-8 (``achieved`` is the worst of them), and
    when the eigengap lambda_{k+1} - lambda_k is at most the worst residual
    of the k pairs plus that of the (k+1)th plus the rounding
    8 n eps max(1, |lambda_{k+1}|): then no computed subspace can be told
    from another one, as when k splits a repeated eigenvalue.
    """
    n = graph.n
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    components, comp = _components(graph.adjacency)
    if components > k:
        raise InvalidGraphError(
            f"graph has {components} connected components, more than k={k}: "
            f"its bottom-{k} eigenspace is not unique"
        )
    w, d = graph.adjacency, graph.degrees
    want = k + 1 - components
    parts = [np.flatnonzero(comp == i) for i in range(components)]
    solved, matvecs = [], 0
    for nodes in parts:
        block = w if components == 1 else w[np.ix_(nodes, nodes)]
        part_vals, part_vecs, count = _solve(block, d[nodes],
                                             min(nodes.size - 1, want))
        solved.append((part_vals, part_vecs))
        matvecs += count
    pairs = [(0.0, i, 0) for i in range(components)] + sorted(
        (val, i, j) for i, (part_vals, _) in enumerate(solved)
        for j, val in enumerate(part_vals[1:], start=1))[:want]
    vals = np.array([val for val, _, _ in pairs])
    # k+1 rows: the (k+1)th pair is certified like the k it bounds
    P = np.zeros((k + 1, n))
    for row, (_, i, j) in enumerate(pairs):
        P[row, parts[i]] = solved[i][1][:, j]
    residuals = _validate(P, vals, w, 1.0 / np.sqrt(d))
    worst, residual_next = float(residuals[:k].max()), float(residuals[k])
    gap = float(vals[k] - vals[k - 1])
    rounding = 8 * n * np.finfo(float).eps * max(1.0, abs(float(vals[k])))
    if gap <= worst + residual_next + rounding:
        raise ConvergenceError(
            f"eigengap lambda_{k + 1} - lambda_{k} = {gap:.3e} is within the "
            f"residuals {worst:.3e} + {residual_next:.3e} plus rounding "
            f"{rounding:.1e}: the bottom-{k} eigenspace is not determined",
            achieved=gap)
    stats = {"method": "arpack" if matvecs else "eigh",
             "components": components, "matvecs": matvecs,
             "worst_residual": worst, "residual_next": residual_next,
             "lambda_k": float(vals[k - 1]), "lambda_next": float(vals[k]),
             "subspace_bound": worst / gap}
    return Embedding(P=P[:k], eigenvalues=vals[:k],
                     lambda_next=float(vals[k]), stats=stats)
