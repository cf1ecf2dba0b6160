"""Dense eigensolve and Laplacian build counts per question.

Each certificate quantity is solved once, and every solve that reads no
eigenvector is values-only (np.linalg.eigvalsh): one evaluate() solves the
Laplacian and the pinned operator once each, plus four n x n solves (two
norms and lambda_min(QB + B^T Q^T) for the structural check, ||Q|| for the
threshold). Greedy selection reads eigenvectors (np.linalg.eigh): it solves
the empty set once, then per round only the candidates its secular screen
cannot rule out, those near the best score, or only the pick of a round in
which every candidate is singular.

Each Graph builds its Laplacian once, at the first laplacian(g), and every
operator of every command is derived from that one matrix: one build per
CLI command, and one per parse.
"""

import json
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from pinnet import (complete_graph, disjoint_union, erdos_renyi, evaluate, graphs, greedy_select,
                    laplacian, parse_edge_list, path_graph, pinned_operator, to_edge_list)
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


def test_greedy_solves_singular_candidates_not_their_whole_round(solves):
    # K5 + P6: in round 1 every candidate leaves a component unpinned, so only
    # the pick, K5's node 0, is solved. Round 2 solves P6's tied middle pair,
    # not the 4 singular K5 candidates: 1 + 1 + 2
    result = greedy_select(disjoint_union(complete_graph(5), path_graph(6)), 1.0, 5.0, 2)
    assert result.pinned == (0, 7)
    assert solves == {("eigh", 11): 4}


def test_greedy_screen_is_scale_free(solves):
    # the unit-gain case above, scaled by 2^-30: the same picks from the same 4 solves
    result = greedy_select(erdos_renyi(120, 0.08, seed=7), 2.0**-30, 5.0 * 2.0**-30, 3)
    assert result.pinned == (56, 101, 7)
    assert solves == {("eigh", 120): 4}


def test_greedy_solves_one_candidate_per_round_while_components_lack_pins(solves):
    # 26 components and budget 6: every round is singular, so 1 + 6 solves where
    # solving every candidate would take 886
    result = greedy_select(erdos_renyi(150, 0.012, seed=10), 1.0, 2.0, 6)
    assert result.objective == 0.0
    assert solves == {("eigh", 150): 7}


def test_greedy_solves_one_candidate_per_round_below_the_rank_tolerance(solves):
    # connected, but kappa 1e-12 leaves every candidate within the rank
    # tolerance: 1 + 3 solves where solving every candidate would take 748
    result = greedy_select(erdos_renyi(250, 10 / 249, seed=3), 1.0, 1e-12, 3)
    assert (result.pinned, result.objective) == ((0, 1, 2), 0.0)
    assert solves == {("eigh", 250): 4}


@pytest.fixture
def builds(monkeypatch):
    """Counter of Laplacian builds, by graph size."""
    counts = Counter()
    assemble = graphs._assemble_laplacian

    def counting(g):
        counts[g.num_nodes] += 1
        return assemble(g)

    monkeypatch.setattr(graphs, "_assemble_laplacian", counting)
    return counts


@pytest.fixture
def config_path(tmp_path, graph_path):
    doc = {"graph_path": graph_path, "sigma": 1.0, "kappa": 20.0, "pinned": [0, 3], "n": 1,
           "b": [[1.0]], "k": [[20.0]], "q": [[1.0]],
           "dynamics": {"kind": "scalar_saturated", "a": 0.2, "b": 0.1},
           "sim": {"t0": 0.0, "t_end": 0.2, "dt": 0.01, "x0": {"seed": 1}, "s0": [0.1]}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("argv", [
    ["kappa", "{config}"],
    ["bounds", "{graph}", "--kappa", "5", "--pinned", "4,2,7"],
    ["spectrum", "{graph}", "--kappa", "5", "--pinned", "0,1", "--full"],
    ["select", "{graph}", "--kappa", "5", "--budget", "3", "--method", "greedy"],
    ["select", "{graph}", "--kappa", "5", "--budget", "2", "--method", "exhaustive"],
    ["simulate", "{config}"],
])
def test_each_command_builds_one_laplacian(builds, graph_path, config_path, capsys, argv):
    argv = [a.format(graph=graph_path, config=config_path) for a in argv]
    assert main(argv + ["--json"]) in (0, 3)
    assert builds == {N: 1}


def test_laplacian_is_memoised_read_only():
    g = erdos_renyi(N, 0.3, seed=3)
    lap = laplacian(g)
    assert laplacian(g) is lap
    assert not lap.array.flags.writeable
    with pytest.raises(ValueError):
        lap.array[0, 0] = 1.0


@pytest.mark.parametrize("sigma, kappa, pinned", [(1.0, 5.0, (0, 4)), (2.0**-30, 0.0, ()),
                                                  (1e160, 1e161, (3,))])
def test_pinned_operator_never_writes_into_the_memo(builds, sigma, kappa, pinned):
    g = erdos_renyi(N, 0.3, seed=3)
    before = laplacian(g).array.copy()
    op = pinned_operator(g, sigma, kappa, pinned)
    assert not np.shares_memory(op.array, laplacian(g).array)
    assert laplacian(g).array.tobytes() == before.tobytes()
    expected = sigma * before
    expected[pinned, pinned] += kappa
    assert op.array.tobytes() == expected.tobytes()
    assert builds == {N: 1}


def test_two_parses_of_one_text_build_two_laplacians(builds, graph_path):
    text = open(graph_path).read()
    first, second = parse_edge_list(text), parse_edge_list(text)
    assert first == second
    assert laplacian(first) is not laplacian(second)
    assert np.array_equal(laplacian(first).array, laplacian(second).array)
    assert builds == {N: 2}


def test_racing_first_calls_get_equal_laplacians():
    # the memo's race is benign: threads that build at once each get an equal
    # matrix, and one of them is kept for every later call
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:  # more threads than the cores CI runs on
            for seed in range(10):
                g = erdos_renyi(N, 0.3, seed=seed)
                results = [f.result(timeout=30) for f in [pool.submit(laplacian, g) for _ in range(8)]]
                kept = laplacian(g)
                assert laplacian(g) is kept and any(lap is kept for lap in results)
                assert all(lap.array.tobytes() == kept.array.tobytes() for lap in results)
    finally:
        sys.setswitchinterval(interval)
