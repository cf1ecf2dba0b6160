"""Dense eigensolve counts per question, by solver and matrix size.

Each certificate quantity is solved once, and every solve that reads no
eigenvector is values-only (np.linalg.eigvalsh): one evaluate() solves the
Laplacian and the pinned operator once each, plus four n x n solves (two
norms and lambda_min(QB + B^T Q^T) for the structural check, ||Q|| for the
threshold). Greedy selection reads eigenvectors (np.linalg.eigh): it solves
the empty set once, then per round only the candidates its secular screen
cannot rule out.
"""

from collections import Counter

import numpy as np
import pytest

from pinnet import complete_graph, erdos_renyi, evaluate, greedy_select, to_edge_list
from pinnet.cli import main

from helpers import scalar_spec

N = 30


@pytest.fixture
def solves(monkeypatch):
    """Counter of (solver, matrix size) over np.linalg.eigh and eigvalsh."""
    counts = Counter()

    def counting(name):
        solver = getattr(np.linalg, name)

        def count(a, *args, **kwargs):
            counts[name, np.shape(a)[-1]] += 1
            return solver(a, *args, **kwargs)

        return count

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counting(name))
    return counts


@pytest.fixture
def graph_path(tmp_path):
    path = tmp_path / "er30.txt"
    path.write_text(to_edge_list(erdos_renyi(N, 0.3, seed=3)))
    return str(path)


def test_evaluate_solves_each_quantity_once(solves):
    spec = scalar_spec(erdos_renyi(N, 0.3, seed=3), 1.0, 4.0, (0, 1), 0.2)
    assert solves == {("eigvalsh", 1): 1}  # the constructor's positive-definiteness check
    solves.clear()
    evaluate(spec)
    assert solves == {("eigvalsh", N): 2, ("eigvalsh", 1): 4}


@pytest.mark.parametrize("pinned", ["0", "0,1", "4,2,7"])
def test_bounds_solves_laplacian_once_and_each_step_once(solves, graph_path, capsys, pinned):
    assert main(["bounds", graph_path, "--kappa", "5", "--pinned", pinned, "--json"]) == 0
    k = len(pinned.split(","))
    assert solves == {("eigvalsh", N): 1 + k}


def test_spectrum_full_solves_two_matrices(solves, graph_path, capsys):
    argv = ["spectrum", graph_path, "--kappa", "5", "--pinned", "0,1", "--full", "--json"]
    assert main(argv) == 0
    assert solves == {("eigvalsh", N): 2}


def test_greedy_solves_the_winner_once_per_round(solves):
    # down from 1 + 120 + 119 + 118 = 358 dense solves
    greedy_select(erdos_renyi(120, 0.08, seed=7), 1.0, 5.0, 3)
    assert solves == {("eigh", 120): 4}


def test_greedy_solves_every_tied_candidate(solves):
    # every node of K8 ties, so each round solves all of them: 1 + 8 + 7 + 6
    greedy_select(complete_graph(8), 1.0, 5.0, 3)
    assert solves == {("eigh", 8): 22}
