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
