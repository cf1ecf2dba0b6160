"""Dense eigensolve, Laplacian build and component labelling counts per question.

Each certificate quantity is solved once, and every solve that reads no
eigenvector is values-only (np.linalg.eigvalsh): one evaluate() solves the
Laplacian and the pinned operator once each, plus four n x n solves (two
norms and lambda_min(QB + B^T Q^T) for the structural check, ||Q|| for the
threshold). Every selection objective is one values-only solve, or none
where the structure fixes it at 0.0. Only a greedy round that screens reads
eigenvectors (np.linalg.eigh): it solves its base, the operator of the picks
so far. A round the structure decides solves nothing.

Each Graph builds its Laplacian and labels its components once, at the first
call, and every operator of every command is derived from that one matrix:
one build per CLI command, and one per parse.
"""

import json
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from pinnet import (ValidationError, complete_graph, component_roots, degree_select,
                    disjoint_union, erdos_renyi, evaluate, evaluate_pinning, exhaustive_select,
                    graphs, greedy_select, laplacian, parse_edge_list, path_graph,
                    pinned_operator, to_edge_list)
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
    # each round's base is the operator of the picks so far: the empty set,
    # then the first two winners, and the objective one values-only solve of
    # all three; down from 1 + 120 + 119 + 118 = 358 dense solves
    greedy_select(erdos_renyi(120, 0.08, seed=7), 1.0, 5.0, 3)
    assert solves == {("eigh", 120): 3, ("eigvalsh", 120): 1}


def test_greedy_solves_only_the_pick_among_tied_candidates(solves):
    # every node of K8 ties, and only the smallest is solved, as the next
    # round's base or for the objective: 3 + 1, down from 1 + 8 + 7 + 6 = 22
    # when every tied candidate was solved
    result = greedy_select(complete_graph(8), 1.0, 5.0, 3)
    assert result.pinned == (0, 1, 2)
    assert solves == {("eigh", 8): 3, ("eigvalsh", 8): 1}


def test_greedy_solves_singular_candidates_not_their_whole_round(solves):
    # K5 + P6: in round 1 every candidate leaves a component unpinned, so the
    # structure picks K5's node 0 with no solve. Round 2 solves its base and
    # scores only P6's nodes, picking the smaller of its tied middle pair;
    # the objective is one values-only solve
    result = greedy_select(disjoint_union(complete_graph(5), path_graph(6)), 1.0, 5.0, 2)
    assert result.pinned == (0, 7)
    assert solves == {("eigh", 11): 1, ("eigvalsh", 11): 1}


def test_greedy_screen_is_scale_free(solves):
    # the unit-gain case above, scaled by 2^-30: the same picks from the same 4 solves
    result = greedy_select(erdos_renyi(120, 0.08, seed=7), 2.0**-30, 5.0 * 2.0**-30, 3)
    assert result.pinned == (56, 101, 7)
    assert solves == {("eigh", 120): 3, ("eigvalsh", 120): 1}


def test_greedy_solves_nothing_while_components_lack_pins(solves):
    # 26 components and budget 6: every round and the objective are decided
    # by the structure, so no solve, where solving every candidate would take 886
    result = greedy_select(erdos_renyi(150, 0.012, seed=10), 1.0, 2.0, 6)
    assert result.objective == 0.0
    assert solves == {}


def test_greedy_checks_gains_that_no_solve_reads(solves):
    with pytest.raises(ValidationError, match="sigma must be positive"):
        greedy_select(erdos_renyi(150, 0.012, seed=10), -1.0, 2.0, 6)
    for select in (degree_select, exhaustive_select):
        with pytest.raises(ValidationError, match="kappa must be non-negative"):
            select(disjoint_union(complete_graph(5), path_graph(6)), 1.0, -1.0, 1)
    assert solves == {}


def test_greedy_at_budget_zero_solves_nothing(solves):
    result = greedy_select(erdos_renyi(120, 0.08, seed=7), 1.0, 5.0, 0)
    assert (result.pinned, result.objective) == ((), 0.0)
    assert solves == {}


def test_greedy_solves_one_candidate_per_round_at_a_tiny_gain(solves):
    # connected, and kappa 1e-12 puts every candidate within the tie band of
    # the best: 3 + 1 solves where solving every candidate would take 748. The
    # operator is positive definite, so the objective is its dense value (about
    # 1e-14, near the solve's error of eps lambda_max, so its sign is not asserted).
    g = erdos_renyi(250, 10 / 249, seed=3)
    result = greedy_select(g, 1.0, 1e-12, 3)
    assert result.pinned == (0, 1, 2)
    assert solves == {("eigh", 250): 3, ("eigvalsh", 250): 1}
    assert result.objective == evaluate_pinning(g, 1.0, 1e-12, (0, 1, 2))


@pytest.mark.parametrize("kappa", [1e-5, 1e-3])
def test_greedy_solves_only_its_picks_where_scores_crowd(solves, kappa):
    # at kappa 1e-5 all 250 first-round scores lie within 20 ulps of lambda_max
    # + kappa, a tie; at 1e-3 they spread over 2e5 ulps. Either way 3 + 1
    # solves, where a screen window of 1e-8 (lambda_max + kappa) solved 748.
    greedy_select(erdos_renyi(250, 10 / 249, seed=3), 1.0, kappa, 3)
    assert solves == {("eigh", 250): 3, ("eigvalsh", 250): 1}


@pytest.mark.parametrize("g, select, budget, count", [
    (erdos_renyi(N, 0.3, seed=3), degree_select, 3, 1),
    (erdos_renyi(N, 0.3, seed=3), exhaustive_select, 2, N * (N - 1) // 2),
    # K5 + P6: only the 5 x 6 subsets with a pin in each component are solved,
    # and degree's two K5 hubs leave P6 unpinned
    (disjoint_union(complete_graph(5), path_graph(6)), exhaustive_select, 2, 30),
    (disjoint_union(complete_graph(5), path_graph(6)), degree_select, 2, 0),
], ids=["degree", "exhaustive", "exhaustive-k5p6", "degree-k5p6"])
def test_degree_and_exhaustive_solve_values_only(solves, g, select, budget, count):
    select(g, 1.0, 5.0, budget)
    assert solves == ({("eigvalsh", g.num_nodes): count} if count else {})


def count_calls(monkeypatch, name):
    """Counter of calls to graphs.<name>(g), by graph size."""
    counts = Counter()
    compute = getattr(graphs, name)

    def counting(g):
        counts[g.num_nodes] += 1
        return compute(g)

    monkeypatch.setattr(graphs, name, counting)
    return counts


@pytest.fixture
def builds(monkeypatch):
    """Counter of Laplacian builds, by graph size."""
    return count_calls(monkeypatch, "_assemble_laplacian")


@pytest.fixture
def labels(monkeypatch):
    """Counter of component labellings, by graph size."""
    return count_calls(monkeypatch, "_label_components")


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
def test_each_command_builds_one_laplacian(builds, labels, graph_path, config_path, capsys,
                                           argv):
    argv = [a.format(graph=graph_path, config=config_path) for a in argv]
    assert main(argv + ["--json"]) in (0, 3)
    assert builds == labels == {N: 1}


def test_laplacian_is_memoised_read_only():
    g = erdos_renyi(N, 0.3, seed=3)
    lap = laplacian(g)
    assert laplacian(g) is lap
    assert not lap.array.flags.writeable
    with pytest.raises(ValueError):
        lap.array[0, 0] = 1.0


def test_component_labels_are_memoised_read_only(labels):
    g = disjoint_union(complete_graph(5), path_graph(6))
    roots = component_roots(g)
    assert component_roots(g) is roots
    assert roots.tolist() == [0] * 5 + [5] * 6
    with pytest.raises(ValueError):
        roots[0] = 1
    assert labels == {11: 1}


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


def assert_first_calls_race_benignly(memo, as_bytes):
    """Threads that compute a Graph's memo at once each get an equal result,
    and one of them is kept for every later call."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:  # more threads than the cores CI runs on
            for seed in range(10):
                g = erdos_renyi(N, 0.3, seed=seed)
                results = [f.result(timeout=30) for f in [pool.submit(memo, g) for _ in range(8)]]
                kept = memo(g)
                assert memo(g) is kept and any(r is kept for r in results)
                assert all(as_bytes(r) == as_bytes(kept) for r in results)
    finally:
        sys.setswitchinterval(interval)


def test_racing_first_calls_get_equal_laplacians():
    assert_first_calls_race_benignly(laplacian, lambda lap: lap.array.tobytes())


def test_racing_first_calls_get_equal_labels():
    assert_first_calls_race_benignly(component_roots, np.ndarray.tobytes)
