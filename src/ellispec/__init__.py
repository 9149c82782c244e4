"""Graph clustering with an ellipsoid-based grouping stage.

Pipeline: spectral embedding through the normalized Laplacian, then an
origin-centered minimum-volume enclosing ellipsoid whose boundary columns
act as cluster representatives (thinned to k by successive projection),
then nearest-representative assignment; fewer than k boundary columns
raise RankError.  Next to it: a k-means based spectral baseline, a
synthetic benchmark generator, cosine kNN graphs from feature vectors,
Matrix Market and label-file I/O, and the scores (per-cluster
conductance through ``partition_profile``, accuracy, NMI).
"""

__version__ = "0.1.0"

from ._errors import (
    ConvergenceError,
    EllispecError,
    InvalidGraphError,
    InvalidPartitionError,
    RankError,
)
from .eigen import Embedding, bottom_k_eigs
from .elli import ElliResult, elli_cluster, group_columns
from .graph import Partition, WeightedGraph, partition_profile
from .ingest import VectorDataset, cosine_knn_graph, load_csv, load_vds
from .io import read_graph, read_labels, write_graph, write_labels
from .ksc import KscRun, kmeanspp_seed, ksc_cluster, lloyd
from .metrics import accuracy, contingency, nmi, timed
from .mvee import Ellipsoid, solve_mvee
from .spa import spa_select
from .synth import (
    SynthInstance,
    conductance_bound,
    delta_sweep,
    standard_suites,
    synth_adjacency,
)

__all__ = [
    "ConvergenceError",
    "EllispecError",
    "InvalidGraphError",
    "InvalidPartitionError",
    "RankError",
    "Embedding",
    "bottom_k_eigs",
    "ElliResult",
    "elli_cluster",
    "group_columns",
    "Partition",
    "WeightedGraph",
    "partition_profile",
    "VectorDataset",
    "cosine_knn_graph",
    "load_csv",
    "load_vds",
    "read_graph",
    "read_labels",
    "write_graph",
    "write_labels",
    "KscRun",
    "kmeanspp_seed",
    "ksc_cluster",
    "lloyd",
    "accuracy",
    "contingency",
    "nmi",
    "timed",
    "Ellipsoid",
    "solve_mvee",
    "spa_select",
    "SynthInstance",
    "conductance_bound",
    "delta_sweep",
    "standard_suites",
    "synth_adjacency",
]
