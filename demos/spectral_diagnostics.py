"""Reading cluster structure off the Laplacian spectrum.

The number of near-zero eigenvalues of the normalized Laplacian counts
the well-separated pieces of a graph, and the ratio between the next
eigenvalue and a partition's worst conductance measures how decisively
that partition explains the graph.
"""

from ellispec import bottom_k_eigs, partition_profile, synth_adjacency

k = 4
print(f"{'delta':>6} {'lambda_1..k':<34} {'lambda_k+1':>10} {'gap ratio':>10}")
for delta in (0.0, 0.2, 0.8, 1.6):
    inst = synth_adjacency([50] * k, delta, rng=2)
    emb = bottom_k_eigs(inst.graph, k)
    profile = partition_profile(inst.graph, inst.truth)
    # lambda_{k+1} / MCC; the MCC of any partition bounds the graph's
    # conductance from above, so this ratio bounds its spectral gap below
    mcc = profile["mcc"]
    ratio = "inf" if mcc == 0 else f"{emb.lambda_next / mcc:10.2f}"
    spectrum = " ".join(f"{v:.4f}" for v in emb.eigenvalues)
    print(f"{delta:>6.1f} {spectrum:<34} {emb.lambda_next:>10.4f} "
          f"{ratio:>10}")

print()
print("At delta = 0 the k blocks are disconnected: k exact zeros and an")
print("infinite gap ratio.  As delta grows the bottom eigenvalues lift")
print("and the ratio shrinks -- the partition explains less of the graph.")
