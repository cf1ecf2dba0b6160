"""Simulating the pinned network and checking the decay prediction.

Integrates the coupled system with fixed-step RK4, tracks the quadratic
Lyapunov value V(t) = sum_i e_i^T Q e_i, and puts the certificate's verdict
next to the empirical outcome, first for a certified configuration and then
for an uncontrolled one that diverges.
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


rng = np.random.default_rng(8)

print("certified run: K4, pin node 0, saturating node dynamics")
g = pn.complete_graph(4)
dyn = pn.ScalarSaturatedDynamics(0.15, 0.1)  # f_bound = 0.25
base = scalar_spec(g, 1.0, 1.0, (0,), dyn.f_bound)
kthr = pn.kappa_threshold(base)
kappa = 2.0 * kthr
spec = scalar_spec(g, 1.0, kappa, (0,), dyn.f_bound)
rep = pn.evaluate(spec)
print(f"  kappa threshold {kthr:.3f}, running at kappa = {kappa:.3f}")
print(f"  certificate bound {rep.iterative_bound:.4f} >= rhs {rep.rhs_threshold:.4f}"
      f" -> verdict_theorem = {rep.verdict_theorem}")

config = pn.SimConfig(
    system=spec,
    dynamics=dyn,
    x0=rng.uniform(-1.0, 1.0, size=(4, 1)),
    s0=np.array([0.3]),
    t0=0.0,
    t_end=12.0,
    dt=1e-3,
)
traj = pn.simulate(config)
decay = pn.check_decay(traj)
print(f"  decay verdict: {decay.ok}; ||e(0)|| = {np.linalg.norm(traj.errors[0]):.4f},"
      f" ||e(T)|| = {traj.final_error_norm():.2e}")
print("  Lyapunov value along the run:")
for frac in (0.0, 0.1, 0.25, 0.5, 1.0):
    k = int(frac * traj.steps)
    print(f"    t = {traj.times[k]:>6.2f}: V = {traj.lyapunov[k]:.3e}")
print(f"  summary: {pn.trajectory_summary(traj)}")

print()
print("uncontrolled contrast: same dynamics made unstable, nothing pinned")
wild = pn.ScalarSaturatedDynamics(0.8, 0.2)
spec2 = scalar_spec(pn.path_graph(4), 0.05, 0.0, (), wild.f_bound)
config2 = pn.SimConfig(
    system=spec2,
    dynamics=wild,
    x0=rng.uniform(-1.0, 1.0, size=(4, 1)),
    s0=np.array([0.3]),
    t0=0.0,
    t_end=60.0,
    dt=1e-2,
)
traj2 = pn.simulate(config2)
if traj2.diverged_at is None:
    decay2 = pn.check_decay(traj2)
    print(f"  decayed: {decay2.ok}, final error {traj2.final_error_norm():.3e}, "
          f"violations: {len(decay2.violations)}")
else:
    print(f"  diverged at t = {traj2.diverged_at:.2f} (overflow guard); "
          f"last finite sample index {traj2.steps}")

print()
print("trajectory CSV export writes t,node,component,x,e,V rows for plotting;")
print("see write_trajectory_csv or the CLI's `pinnet simulate --out run.csv`.")
