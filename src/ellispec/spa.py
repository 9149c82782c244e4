"""Successive projection: greedy max-norm column selection.

Repeatedly picks the candidate column of largest Euclidean norm, then
projects every remaining candidate onto the orthogonal complement of the
picked column.  That is QR with column pivoting (Businger & Golub 1965),
so the picks are the first k pivots of LAPACK's ``dgeqp3``.  Two
candidates tie exactly when their columns are identical or opposite;
LAPACK then takes the one that comes first in its current column order,
which for the first pick is the lowest index but after a column swap
may not be.  Used to thin an active set down to exactly k indices.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from ._errors import RankError

__all__ = ["spa_select"]

_COLLAPSE_TOL = 1e-12


def spa_select(P: np.ndarray, candidates, k: int) -> list[int]:
    """Select k distinct indices from ``candidates`` by successive projection.

    Returns the indices in selection order.  Raises RankError if the
    candidate columns collapse (all residual norms below tolerance)
    before k picks are made, and ValueError if P is not finite.
    """
    P = np.asarray(P, dtype=np.float64)
    cand = np.asarray(sorted(candidates), dtype=np.int64)
    if cand.size < k:
        raise ValueError(f"need at least {k} candidates, got {cand.size}")

    # |R_jj| is the residual norm of the j-th pivot column when it is picked
    R, pivots = scipy.linalg.qr(P[:, cand], overwrite_a=True, mode="r",
                                pivoting=True)
    kept = np.abs(np.diagonal(R)[:k]) > _COLLAPSE_TOL
    rank = kept.size if kept.all() else int(np.argmin(kept))
    if rank < k:
        raise RankError(
            f"candidate columns collapsed after {rank} of {k} selections",
            numerical_rank=rank,
        )
    return cand[pivots[:k]].tolist()
