"""External-validity metrics: assignment accuracy, NMI, timing."""

from __future__ import annotations

import time

import numpy as np
from scipy.optimize import linear_sum_assignment

from ._errors import InvalidPartitionError
from .graph import Partition

__all__ = ["contingency", "accuracy", "nmi", "timed"]


def contingency(found: Partition, truth: Partition) -> np.ndarray:
    """k x k table of overlap counts |C_u intersect T_v|."""
    if found.n != truth.n:
        raise InvalidPartitionError(
            f"partitions cover {found.n} and {truth.n} nodes"
        )
    table = np.zeros((found.k, truth.k), dtype=np.int64)
    np.add.at(table, (found.labels, truth.labels), 1)
    return table


def accuracy(found: Partition, truth: Partition) -> float:
    """Fraction of nodes matched under the best cluster-to-cluster assignment.

    The maximizing permutation is computed exactly by the Hungarian
    algorithm on the negated overlap table.  Both partitions must be
    k-way with the same k.
    """
    if found.k != truth.k:
        raise InvalidPartitionError(
            f"partitions have k={found.k} and k={truth.k}; equal k required"
        )
    table = contingency(found, truth)
    rows, cols = linear_sum_assignment(-table)
    return float(table[rows, cols].sum()) / found.n


def nmi(found: Partition, truth: Partition) -> float:
    """Normalized mutual information 2 I(C;T) / (H(C) + H(T)), in [0, 1].

    Natural log throughout (the base cancels).  If both partitions are
    single-cluster the entropies vanish; the value is then defined as 1,
    since two single-cluster partitions of the same n nodes are equal.
    """
    table = contingency(found, truth).astype(np.float64)
    n = float(found.n)
    pu = table.sum(axis=1) / n
    pv = table.sum(axis=0) / n
    h_found = float(-np.sum(pu[pu > 0] * np.log(pu[pu > 0])))
    h_truth = float(-np.sum(pv[pv > 0] * np.log(pv[pv > 0])))
    if h_found + h_truth == 0.0:
        return 1.0
    pij = table / n
    mask = pij > 0
    outer = np.outer(pu, pv)
    info = float(np.sum(pij[mask] * np.log(pij[mask] / outer[mask])))
    value = 2.0 * info / (h_found + h_truth)
    return float(min(max(value, 0.0), 1.0))


def timed(fn, *args, **kwargs):
    """Run fn and return (result, elapsed seconds) from a monotonic clock."""
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0
