"""Controllability certificates and the feedback-gain threshold.

The certificate lower-bounds lambda_min>0(sigma L + kappa P) in closed form
and compares it with the decay threshold 2 f_bound ||Q|| / lambda_min(QB +
B^T Q^T). Two case studies:

  - a complete graph with one pinned node, where the certificate is nearly
    tight and a finite gain threshold exists;
  - a path with one pinned end, where the exact eigenvalue saturates below
    the decay threshold, so no gain can ever be certified (pinning a single
    low-degree node simply cannot hold the whole chain).
"""

import numpy as np

import pinnet as pn


def scalar_spec(graph, sigma, kappa, pinned, f_bound):
    return pn.PinnedSystemSpec(
        graph=graph,
        sigma=sigma,
        kappa=kappa,
        b_matrix=np.eye(1),
        k_matrix=kappa * np.eye(1),
        q_matrix=pn.SymMatrix(np.eye(1)),
        pinned=pinned,
        f_bound=f_bound,
    )


print("case 1: complete graph K5, pin node 0, f_bound = 0.5 (scalar Q = B = 1)")
g = pn.complete_graph(5)
spec0 = scalar_spec(g, 1.0, 6.0, (0,), 0.5)
kthr = pn.kappa_threshold(spec0)
print(f"  sigma*lam_min>0(L) = {pn.sigma_lambda_min_gt0(spec0):.4f}")
print(f"  rhs threshold      = {pn.rhs_threshold(spec0):.4f}")
print(f"  kappa threshold    = {kthr:.4f}")
print()
print(f"  {'kappa':>10} {'bound':>12} {'exact':>12} {'bound>=rhs':>11} {'exact>=rhs':>11}")
for kappa in (6.0, 15.0, kthr, 2 * kthr):
    s = scalar_spec(g, 1.0, float(kappa), (0,), 0.5)
    bound = pn.iterative_bound(s)
    exact = pn.lambda_min_gt0(pn.pinned_operator(g, 1.0, float(kappa), (0,)))
    print(
        f"  {kappa:>10.3f} {bound:>12.6f} {exact:>12.6f} "
        f"{str(bound >= 0.5):>11} {str(exact >= 0.5):>11}"
    )
rep = pn.evaluate(scalar_spec(g, 1.0, kthr, (0,), 0.5))
print(f"  at the threshold: verdict_theorem={rep.verdict_theorem}, "
      f"verdict_exact={rep.verdict_exact}")

print()
print("case 2: path P3, pin node 0, f_bound = 0.5")
g = pn.path_graph(3)
print("  the exact eigenvalue saturates as kappa grows:")
for kappa in (3.0, 10.0, 100.0, 1e5):
    exact = pn.lambda_min_gt0(pn.pinned_operator(g, 1.0, float(kappa), (0,)))
    print(f"    kappa = {kappa:>8.0f}: lambda_min>0 = {exact:.6f}")
grounded = np.linalg.eigvalsh(pn.laplacian(g).array[1:, 1:]).min()
print(f"  saturation level (grounded sub-Laplacian): {grounded:.6f} < rhs 0.5")
rep = pn.evaluate(scalar_spec(g, 1.0, 3.0, (0,), 0.5))
print(f"  verdict_exact at kappa=3: {rep.verdict_exact}")
print(f"  kappa_threshold: {rep.reasons.get('kappa_threshold')}")

print()
print("the certificate exists exactly when the pinned degree sum stays below")
print("the algebraic connectivity; among simple unweighted graphs only")
print("complete graphs with a single pinned node clear that bar:")
for name, g, pinned in [
    ("K8 pin 1", pn.complete_graph(8), (0,)),
    ("K8 pin 2", pn.complete_graph(8), (0, 1)),
    ("C6 pin 1", pn.cycle_graph(6), (0,)),
]:
    s = scalar_spec(g, 1.0, 2.0 * g.num_nodes, pinned, 0.1)
    try:
        print(f"  {name}: kappa_threshold = {pn.kappa_threshold(s):.3f}")
    except pn.ThresholdUndefinedError as exc:
        print(f"  {name}: undefined ({exc.failing_inequality})")
