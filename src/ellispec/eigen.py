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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg
from scipy.linalg.blas import dsymv

from ._errors import ConvergenceError, InvalidGraphError
from .graph import WeightedGraph, _components

__all__ = ["Embedding", "bottom_k_eigs", "gap_diagnostics"]

# Dense eigh up to this many nodes, ARPACK above.  Times on
# synth_adjacency([n // k] * k, delta, 1), median of 5 solves, one OpenBLAS
# thread on a 2-vCPU Xeon VM, ARPACK reading one triangle of W per
# product (dsymv).  eigh / ARPACK in ms, delta 0.3 then 1.0:
#   n = 1000  k = 10: 120/67, 122/85    k = 20: 125/48, 117/57
#   n = 1200  k = 10: 189/95, 196/85    k = 20: 193/70, 202/81
#   n = 1500  k = 10: 380/138, 373/167  k = 20: 403/103, 411/147
#   n = 2000  k = 10: 900/318, 884/273  k = 20: 908/196, 882/224
# ARPACK now wins at n = 1000 as well; the cutoff stays where the first
# grid (full-W products) put it until lowering it, which moves graphs of
# n <= 1000 to the other solver, is checked against their partitions.
DENSE_THRESHOLD = 1000
RESIDUAL_TOL = 1e-10
KERNEL_SHIFT = 3.0  # moves the eigenvalue 1 of S to -2, below its spectrum [-1, 1]


@dataclass
class Embedding:
    """k x n matrix whose rows are the bottom-k eigenvectors.

    Column ell holds the coordinates of node ell in R^k.  Rows are
    orthonormal; ``lambda_next`` is the (k+1)th smallest eigenvalue.
    ``stats`` holds the solver's counters: ``method`` ("eigh" or
    "arpack"), ``matvecs`` (ARPACK operator products, 0 for eigh),
    ``worst_residual`` (largest ||L v - lambda v|| over the k pairs),
    ``lambda_k`` and ``lambda_next``.
    """

    k: int
    n: int
    P: np.ndarray
    eigenvalues: np.ndarray
    lambda_next: float
    stats: dict = field(default_factory=dict)


def _kernel(graph):
    """n x c sparse orthonormal basis of the null space of L: column i is
    sqrt(d) on the nodes of connected component i and zero elsewhere."""
    count, labels = _components(graph.adjacency)
    norms = np.sqrt(np.bincount(labels, weights=graph.degrees, minlength=count))
    return sp.csr_matrix(
        (np.sqrt(graph.degrees) / norms[labels], (np.arange(graph.n), labels)),
        shape=(graph.n, count),
    )


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


def _arpack_eigs(w, dinv, z, k):
    """ARPACK on S = D^{-1/2} W D^{-1/2} = I - L for the k+1 smallest
    pairs of L; returns (eigenvalues, eigenvectors, matvecs).

    The null space of L is known: one vector per connected component (the
    columns of ``z``).  A single-vector Krylov method cannot resolve that
    multiple eigenvalue, so it is moved from 1 to 1 - KERNEL_SHIFT, below
    the spectrum of S, and the null vectors are prepended to what ARPACK
    finds.  Row ell of ``z`` holds one nonzero, ``zv[ell]`` in column
    ``comp[ell]``, so z (z^T x) is a per-component sum scattered back.
    """
    n, c = z.shape
    comp, zv = z.indices, z.data
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
    return (np.concatenate([np.zeros(c), 1.0 - theta]),
            np.hstack([z.toarray(), vecs]), matvecs)


def bottom_k_eigs(graph: WeightedGraph, k: int) -> Embedding:
    """Compute the k smallest eigenpairs of the graph's normalized
    Laplacian plus the (k+1)th eigenvalue.

    Dense ``eigh`` on graphs of at most DENSE_THRESHOLD nodes, ARPACK above.

    Raises InvalidGraphError when the graph has more than k connected
    components: the eigenvalue 0 then has multiplicity above k.
    """
    n = graph.n
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    z = _kernel(graph)
    components = z.shape[1]
    if components > k:
        raise InvalidGraphError(
            f"graph has {components} connected components, more than k={k}: "
            f"its bottom-{k} eigenspace is not unique"
        )
    w = graph.adjacency
    dinv = 1.0 / np.sqrt(graph.degrees)
    if n <= DENSE_THRESHOLD:
        s = (w if isinstance(w, np.ndarray) else w.toarray()) * dinv[:, None]
        s *= dinv[None, :]
        vals, vecs = scipy.linalg.eigh(np.eye(n) - s, subset_by_index=[0, k])
        method, matvecs = "eigh", 0
    else:
        vals, vecs, matvecs = _arpack_eigs(w, dinv, z, k)
        method = "arpack"
    order = np.argsort(vals)
    vals = vals[order]
    vecs = vecs[:, order]
    P = vecs[:, :k].T.copy()
    worst = _validate(P, vals[:k], w, dinv)
    stats = {"method": method, "matvecs": matvecs, "worst_residual": worst,
             "lambda_k": float(vals[k - 1]), "lambda_next": float(vals[k])}
    return Embedding(k=k, n=n, P=P, eigenvalues=vals[:k],
                     lambda_next=float(vals[k]), stats=stats)


def gap_diagnostics(embedding: Embedding, profile):
    """Ratio lambda_{k+1} / MCC, a computable proxy for the spectral gap.

    The MCC of any concrete partition upper-bounds the graph conductance,
    so the ratio lower-bounds the true gap.  Zero MCC reports infinity.
    """
    mcc = profile["mcc"]
    ratio = np.inf if mcc == 0 else embedding.lambda_next / mcc
    return {
        "lambda_next": embedding.lambda_next,
        "mcc": mcc,
        "ratio": ratio,
    }
