"""Bottom-k eigenpairs of the normalized Laplacian (the embedding stage).

The solvers read the graph's own adjacency W, dense or CSR, together
with dinv = D^{-1/2}; no scaled copy of W is kept.  Up to a size
threshold, dense symmetric ``eigh`` on L = I - D^{-1/2} W D^{-1/2},
formed for that call only; above it, ARPACK on the products
dinv * (W @ (dinv * x)), with the known null space deflated.  A dense W
is exactly symmetric (the graph checks it), so each product reads one
triangle of it through the BLAS kernel ``dsymv``, with no copy; a CSR W
is multiplied as stored.  Always retrieves k+1 eigenpairs so the next
eigenvalue is available for diagnostics.

A graph of several connected components is solved one component at a
time: L is then block diagonal, so its spectrum is the union of the
blocks' spectra and its null space holds one sqrt(d) vector per
component.  The size threshold applies to each component.
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
RESIDUAL_TOL = 1e-10
KERNEL_SHIFT = 3.0  # moves the eigenvalue 1 of S to -2, below its spectrum [-1, 1]


@dataclass
class Embedding:
    """k x n matrix whose rows are the bottom-k eigenvectors.

    Column ell holds the coordinates of node ell in R^k.  Rows are
    orthonormal; ``lambda_next`` is the (k+1)th smallest eigenvalue.
    ``stats`` holds the solver's counters: ``method`` ("arpack" when any
    connected component went through ARPACK, else "eigh"), ``components``
    (how many connected components were solved), ``matvecs`` (ARPACK
    operator products summed over the components, 0 for eigh),
    ``worst_residual`` (largest ||L v - lambda v|| over the k pairs),
    ``lambda_k``, ``lambda_next`` and ``subspace_bound``: the eigengap
    bound worst_residual / (lambda_next - lambda_k) on how far the
    computed eigenspace may lie from the exact one (Davis-Kahan).
    """

    P: np.ndarray
    eigenvalues: np.ndarray
    lambda_next: float
    stats: dict = field(default_factory=dict)


def _kernel(graph):
    """(c, comp, zv): the null space of L as c orthonormal vectors, one per
    connected component.  Node ell lies in component ``comp[ell]``, and
    ``zv[ell]`` is its one nonzero entry: sqrt(d) over the component's
    norm."""
    count, comp = _components(graph.adjacency)
    norms = np.sqrt(np.bincount(comp, weights=graph.degrees, minlength=count))
    return count, comp, np.sqrt(graph.degrees) / norms[comp]


def _validate(P, vals, w, dinv, tol=1e-8):
    """The worst eigen-residual of the rows of P, after checking that they
    are orthonormal; ConvergenceError when either exceeds ``tol``."""
    k = P.shape[0]
    off = float(np.abs(P @ P.T - np.eye(k)).max())
    if off > tol:
        raise ConvergenceError("eigenvector rows are not orthonormal",
                               achieved=off)
    x = P.T
    resid = x - dinv[:, None] * (w @ (dinv[:, None] * x)) - x * vals[None, :]
    worst = float(np.linalg.norm(resid, axis=0).max())
    if worst > tol:
        raise ConvergenceError(
            f"eigen-residual {worst:.3e} exceeds {tol:.1e}", achieved=worst
        )
    return worst


def _arpack_eigs(w, dinv, kernel, k):
    """ARPACK on S = D^{-1/2} W D^{-1/2} = I - L for the k+1 smallest
    pairs of L; returns (eigenvalues, eigenvectors, matvecs).

    The null space of L is known: one vector per connected component (the
    columns of ``z``).  A single-vector Krylov method cannot resolve that
    multiple eigenvalue, so it is moved from 1 to 1 - KERNEL_SHIFT, below
    the spectrum of S, and the null vectors are prepended to what ARPACK
    finds.  ``kernel`` is ``_kernel``'s (c, comp, zv): each null vector
    has one nonzero per node, so z (z^T x) is a per-component sum
    scattered back.
    """
    c, comp, zv = kernel
    n = dinv.size
    # a dense W is symmetric: dsymv reads one triangle of it, through the
    # Fortran-ordered view w.T, so nothing is copied
    product = (partial(dsymv, 1.0, w.T) if isinstance(w, np.ndarray)
               else w.__matmul__)
    matvecs = 0

    def matvec(x):
        nonlocal matvecs
        matvecs += 1
        x = x.ravel()
        proj = zv * np.bincount(comp, weights=zv * x, minlength=c)[comp]
        return dinv * product(dinv * x) - KERNEL_SHIFT * proj

    op = scipy.sparse.linalg.LinearOperator((n, n), matvec=matvec,
                                            dtype=np.float64)
    v0 = np.random.default_rng(0x5EED).standard_normal(n)
    try:
        theta, vecs = scipy.sparse.linalg.eigsh(op, k=k + 1 - c, which="LA",
                                                v0=v0, tol=RESIDUAL_TOL)
    except scipy.sparse.linalg.ArpackNoConvergence as exc:
        done, found = len(exc.eigenvalues), exc.eigenvectors
        message = (f"ARPACK converged {done} of {k + 1 - c} eigenpairs "
                   f"within its iteration budget ({matvecs} matvecs)")
        worst = None
        if done:
            resid = np.column_stack([matvec(v) for v in found.T])
            worst = float(np.linalg.norm(resid - found * exc.eigenvalues,
                                         axis=0).max())
            message += f"; worst residual of those: {worst:.3e}"
        raise ConvergenceError(message, achieved=worst) from exc
    z = np.zeros((n, c))
    z[np.arange(n), comp] = zv
    return (np.concatenate([np.zeros(c), 1.0 - theta]),
            np.hstack([z, vecs]), matvecs)


def _solve(w, dinv, kernel, k):
    """The k+1 smallest pairs of L on ``w`` as (eigenvalues in ascending
    order, eigenvectors, matvecs): dense ``eigh`` on I - S, formed in place
    in one n x n array that eigh may overwrite, up to DENSE_THRESHOLD
    nodes, ARPACK above."""
    n = dinv.size
    if n <= DENSE_THRESHOLD:
        s = (w if isinstance(w, np.ndarray) else w.toarray()) * dinv[:, None]
        s *= -dinv[None, :]
        s.flat[::n + 1] += 1.0
        vals, vecs = scipy.linalg.eigh(s, subset_by_index=[0, k],
                                       overwrite_a=True)
        matvecs = 0
    else:
        vals, vecs, matvecs = _arpack_eigs(w, dinv, kernel, k)
    order = np.argsort(vals)
    return vals[order], vecs[:, order], matvecs


def _by_component(w, dinv, kernel, k):
    """``_solve`` for a graph of c > 1 connected components, one component
    at a time.  The c exact null vectors come first, at eigenvalue 0; then
    the k+1-c smallest nonzero eigenvalues over all components, ties going
    to the lower component, each vector scattered into its component's
    rows.  A component of n_i nodes is asked for its first
    min(n_i - 1, k+1-c) nonzero pairs, with its one null vector deflated
    when ARPACK solves it."""
    c, comp, zv = kernel
    n = dinv.size
    want = k + 1 - c
    parts = np.split(np.argsort(comp, kind="stable"),
                     np.cumsum(np.bincount(comp, minlength=c))[:-1])
    vals, vecs, matvecs = [], [], 0
    for nodes in parts:
        part_vals, part_vecs, count = _solve(
            w[np.ix_(nodes, nodes)], dinv[nodes],
            (1, np.zeros(nodes.size, dtype=np.intp), zv[nodes]),
            min(nodes.size - 1, want))
        vals.append(part_vals[1:])
        vecs.append(part_vecs[:, 1:])
        matvecs += count
    best = sorted((val, i, j) for i, part_vals in enumerate(vals)
                  for j, val in enumerate(part_vals))[:want]
    x = np.zeros((n, k + 1))
    x[np.arange(n), comp] = zv
    for col, (_, i, j) in enumerate(best, start=c):
        x[parts[i], col] = vecs[i][:, j]
    return np.r_[np.zeros(c), [val for val, _, _ in best]], x, matvecs


def bottom_k_eigs(graph: WeightedGraph, k: int) -> Embedding:
    """Compute the k smallest eigenpairs of the graph's normalized
    Laplacian plus the (k+1)th eigenvalue.

    Each connected component is solved on its own: dense ``eigh`` on one
    of at most DENSE_THRESHOLD nodes, ARPACK on a larger one.  A connected
    graph is solved whole, with no copy of W.

    Raises InvalidGraphError when the graph has more than k connected
    components: the eigenvalue 0 then has multiplicity above k.  Raises
    ConvergenceError when the eigengap lambda_{k+1} - lambda_k is at most
    the worst residual plus the rounding 8 n eps max(1, |lambda_{k+1}|):
    then no computed subspace can be told from another one, as when k
    splits a repeated eigenvalue.
    """
    n = graph.n
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    kernel = _kernel(graph)
    components = kernel[0]
    if components > k:
        raise InvalidGraphError(
            f"graph has {components} connected components, more than k={k}: "
            f"its bottom-{k} eigenspace is not unique"
        )
    w = graph.adjacency
    dinv = 1.0 / np.sqrt(graph.degrees)
    solve = _solve if components == 1 else _by_component
    vals, vecs, matvecs = solve(w, dinv, kernel, k)
    method = "arpack" if matvecs else "eigh"
    P = vecs[:, :k].T.copy()
    worst = _validate(P, vals[:k], w, dinv)
    gap = float(vals[k] - vals[k - 1])
    rounding = 8 * n * np.finfo(float).eps * max(1.0, abs(float(vals[k])))
    if gap <= worst + rounding:
        raise ConvergenceError(
            f"eigengap lambda_{k + 1} - lambda_{k} = {gap:.3e} is within the "
            f"worst residual {worst:.3e} plus rounding {rounding:.1e}: the "
            f"bottom-{k} eigenspace is not determined", achieved=gap)
    stats = {"method": method, "components": components, "matvecs": matvecs,
             "worst_residual": worst,
             "lambda_k": float(vals[k - 1]), "lambda_next": float(vals[k]),
             "subspace_bound": worst / gap}
    return Embedding(P=P, eigenvalues=vals[:k],
                     lambda_next=float(vals[k]), stats=stats)
