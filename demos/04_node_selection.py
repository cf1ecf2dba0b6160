"""Choosing which nodes to pin under a budget.

Maximizes lambda_min(sigma L + kappa P) exactly. Greedy growth is compared
against the exhaustive oracle and the cheap highest-degree heuristic on a
few topologies; the table reports objectives and how many candidate sets
each method scored (evals).
"""

import numpy as np

import pinnet as pn

rng = np.random.default_rng(14)
sigma, kappa = 1.0, 8.0

cases = {
    "star S8": pn.star_graph(8),
    "cycle C9": pn.cycle_graph(9),
    "barbell-ish ER(10,0.3)": None,
    "dense ER(10,0.6)": None,
}
while cases["barbell-ish ER(10,0.3)"] is None or not pn.is_connected(cases["barbell-ish ER(10,0.3)"]):
    cases["barbell-ish ER(10,0.3)"] = pn.erdos_renyi(10, 0.3, seed=int(rng.integers(1 << 30)))
while cases["dense ER(10,0.6)"] is None or not pn.is_connected(cases["dense ER(10,0.6)"]):
    cases["dense ER(10,0.6)"] = pn.erdos_renyi(10, 0.6, seed=int(rng.integers(1 << 30)))

budget = 2
print(f"budget = {budget}, sigma = {sigma}, kappa = {kappa}")
print(f"{'graph':>24} {'method':>11} {'pinned':>12} {'objective':>12} {'evals':>7}")
for name, g in cases.items():
    rows = [
        pn.greedy_select(g, sigma, kappa, budget),
        pn.degree_select(g, sigma, kappa, budget),
        pn.exhaustive_select(g, sigma, kappa, budget),
    ]
    for r in rows:
        print(
            f"{name:>24} {r.method:>11} {str(sorted(r.pinned)):>12} "
            f"{r.objective:>12.6f} {r.evaluations:>7}"
        )
    assert rows[0].objective <= rows[2].objective + 1e-10

print()
print("greedy never beats the exhaustive oracle, and usually matches it;")
print("degree ranking can misfire when high-degree nodes cluster together.")

print()
print("objective growth with budget on the star (center first is optimal):")
g = pn.star_graph(8)
for b in range(1, 5):
    r = pn.greedy_select(g, sigma, kappa, b)
    print(f"  budget {b}: pinned {sorted(r.pinned)}, objective {r.objective:.6f}")
