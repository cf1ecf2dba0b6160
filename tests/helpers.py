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
