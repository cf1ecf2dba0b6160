"""Shared test utilities: seeded random graphs, a hypothesis graph strategy
and scalar-case system specs."""

import numpy as np
from hypothesis import strategies as st

from pinnet import Graph, PinnedSystemSpec, SymMatrix, erdos_renyi, is_connected


def random_connected_graph(rng: np.random.Generator, n: int, p: float) -> Graph:
    """Seeded G(n, p) resampled until connected."""
    while True:
        g = erdos_renyi(n, p, seed=int(rng.integers(0, 2**31)))
        if is_connected(g):
            return g


def random_graph(rng: np.random.Generator, n: int, p: float) -> Graph:
    return erdos_renyi(n, p, seed=int(rng.integers(0, 2**31)))


@st.composite
def graphs(draw, max_nodes=10):
    n = draw(st.integers(1, max_nodes))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if possible:
        edges = draw(st.lists(st.sampled_from(possible), unique=True))
    else:
        edges = []
    return Graph(n, tuple(edges))


def scalar_spec(graph, sigma, kappa, pinned, f_bound) -> PinnedSystemSpec:
    """Scalar testbed: Q = B = 1 and K = kappa, which satisfies the
    structural identity exactly."""
    return PinnedSystemSpec(
        graph=graph,
        sigma=sigma,
        kappa=kappa,
        b_matrix=np.eye(1),
        k_matrix=kappa * np.eye(1),
        q_matrix=SymMatrix(np.eye(1)),
        pinned=tuple(pinned),
        f_bound=f_bound,
    )


def no_convergence(*args, **kwargs):
    """Stands in for an eigensolver that fails to converge."""
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def break_eigh(monkeypatch):
    """np.linalg.eigh returns its first eigenvector off by 1e-6 per entry."""
    eigh = np.linalg.eigh

    def bad_vector(a, *args, **kwargs):
        w, v = eigh(a, *args, **kwargs)
        v = v.copy()
        v[:, 0] += 1e-6
        return w, v

    monkeypatch.setattr(np.linalg, "eigh", bad_vector)


def break_eigvalsh(monkeypatch):
    """np.linalg.eigvalsh returns its smallest eigenvalue shifted by
    1e-6 (1 + |lambda_max|)."""
    eigvalsh = np.linalg.eigvalsh

    def shifted(a, *args, **kwargs):
        w = eigvalsh(a, *args, **kwargs).copy()
        w[0] += 1e-6 * (1.0 + np.abs(w).max())
        return w

    monkeypatch.setattr(np.linalg, "eigvalsh", shifted)


def bisect_secular_scores(base, kappa: float, nodes) -> np.ndarray:
    """The secular screen's reference: 64 bisection halvings, on all nodes at
    once, of 1 + kappa sum_j z_j^2 / (lam_j - mu) (lam ascending, z = V[i])
    over [lam_1, min(lam_2, lam_1 + kappa z_1^2)], the bracket from
    interlacing and the Rayleigh quotient of v_1. The halvings shrink the
    bracket below 2^-64 of its width, so the result is the root to round-off;
    a root past the bracket ends on its end, which is then the eigenvalue."""
    lam = base.eigenvalues[::-1]
    z2 = base.eigenvectors[list(nodes)][:, ::-1] ** 2
    lo = np.full(len(z2), lam[0])
    hi = lam[0] + kappa * z2[:, 0]
    if len(lam) > 1:
        hi = np.minimum(lam[1], hi)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            below = 1.0 + kappa * (z2 / (lam - mid[:, None])).sum(axis=1) < 0.0
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
    return hi
