"""Graphs, Laplacians, and the incidence factorization.

Builds a few standard topologies, prints their spectral fingerprints, and
verifies the exact integer identity between the incidence factor and the
Laplacian that underpins all append-a-column bounds.
"""

import numpy as np

import pinnet as pn

graphs = {
    "path P6": pn.path_graph(6),
    "cycle C6": pn.cycle_graph(6),
    "star S6": pn.star_graph(6),
    "complete K6": pn.complete_graph(6),
    "ER(12, 0.35)": pn.erdos_renyi(12, 0.35, seed=4),
}

print("algebraic connectivity across topologies")
print(f"{'graph':>14} {'nodes':>6} {'edges':>6} {'connected':>10} {'lam_min>0':>12} {'lam_max':>10}")
for name, g in graphs.items():
    lap = pn.laplacian(g)
    print(
        f"{name:>14} {g.num_nodes:>6} {g.num_edges:>6} "
        f"{str(pn.is_connected(g)):>10} "
        f"{pn.pinned_lambda_min_gt0(g, 1.0, 0.0, ()):>12.6f} {pn.lambda_max(lap):>10.4f}"
    )

print()
print("incidence factorization: entries in {-1, 0, +1}, one column per edge,")
print("and the Gram identity inc @ inc.T == L holds exactly in integers.")
g = pn.path_graph(4)
inc = pn.incidence(g).entries
print("incidence(P4):")
print(inc)
print("inc @ inc.T:")
print(inc @ inc.T)
assert np.array_equal(inc @ inc.T, pn.laplacian(g).array.astype(np.int64))

print()
print("the orientation is arbitrary: flipping any column leaves the Gram fixed")
flipped = inc * np.array([1, -1, 1])
assert np.array_equal(flipped @ flipped.T, inc @ inc.T)
print("verified on P4 with the middle edge flipped.")

print()
print("disconnected graphs keep one zero eigenvalue per component:")
g2 = pn.disjoint_union(pn.path_graph(3), pn.cycle_graph(4))
w = pn.eig_sym(pn.laplacian(g2)).eigenvalues
print("components:", pn.connected_components(g2))
print("Laplacian spectrum:", np.round(w, 6))
