"""Tour of the synthetic benchmark generator.

The generator splits a random symmetric matrix M into its block-diagonal
part B (the ground-truth clusters) and the halved remainder R, then
forms W = B + delta * R.  The intensity delta interpolates from fully
disconnected blocks (delta = 0) to the original dense matrix (delta = 2),
and every truth cluster's conductance is delta / (c_i + delta) in closed
form -- no search required.
"""

import numpy as np

from ellispec import (
    conductance_bound,
    delta_sweep,
    partition_profile,
    synth_adjacency,
)

SIZES = [40, 60, 50]

print("One instance at delta = 0.5")
print("---------------------------")
inst = synth_adjacency(SIZES, 0.5, rng=7)
print(f"nodes: {inst.graph.n}, clusters: {inst.truth.k}")
print(f"cluster constants c_i: {np.round(inst.c, 3)}")
profile = partition_profile(inst.graph, inst.truth)
for i, measured in enumerate(profile["per_cluster"]):
    closed = inst.delta / (inst.c[i] + inst.delta)
    print(f"  cluster {i}: conductance {measured:.6f} "
          f"(closed form {closed:.6f})")

print()
print("Sweeping delta with a shared base matrix")
print("----------------------------------------")
print(f"{'delta':>6} {'truth MCC':>10} {'bound':>8}")
for inst in delta_sweep(SIZES, deltas=[0.0, 0.25, 0.5, 1.0, 1.5, 2.0], seed=7):
    mcc = partition_profile(inst.graph, inst.truth)["mcc"]
    bound = conductance_bound(inst.c_min, inst.delta)
    print(f"{inst.delta:>6.2f} {mcc:>10.4f} {bound:>8.4f}")

print()
print("The bound equals the truth partition's worst cluster conductance,")
print("so it tells you in advance how noisy an instance will be.")
