import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinnet import (
    CombinatorialGuardError,
    Graph,
    PinnetError,
    SelectionResult,
    ValidationError,
    complete_graph,
    cycle_graph,
    degree_select,
    disjoint_union,
    erdos_renyi,
    evaluate_pinning,
    exhaustive_select,
    greedy_select,
    is_connected,
    path_graph,
    pinned_operator,
    star_graph,
)
from pinnet.selection import _secular_scores
from pinnet.spectral import eig_sym

from helpers import bisect_secular_scores, graphs, random_connected_graph


def reference_greedy(g, sigma, kappa, budget):
    """The dense greedy: one exact solve per candidate set, strictly larger
    wins, in index order. greedy_select must match it bit for bit."""
    if not 0 <= budget <= g.num_nodes:
        raise ValidationError(f"budget {budget} must be between 0 and {g.num_nodes}")
    if budget == 0:
        return SelectionResult((), evaluate_pinning(g, sigma, kappa, ()), "greedy", 0)
    chosen = []
    evaluations = 0
    for _ in range(budget):
        best_val, best_node = -math.inf, -1
        for cand in range(g.num_nodes):
            if cand in chosen:
                continue
            val = evaluate_pinning(g, sigma, kappa, chosen + [cand])
            evaluations += 1
            if val > best_val:
                best_val, best_node = val, cand
        chosen.append(best_node)
    return SelectionResult(tuple(chosen), float(best_val), "greedy", evaluations)


def outcome(select, *args):
    """The result, or the error's type and message (an edgeless graph raises
    at budget 0, and at every budget when kappa is 0)."""
    try:
        return select(*args)
    except PinnetError as exc:
        return type(exc), str(exc)


def test_evaluate_pinning_path3():
    g = path_graph(3)
    assert evaluate_pinning(g, 1.0, 0.0, ()) == pytest.approx(1.0)
    assert evaluate_pinning(g, 1.0, 0.0, (0,)) == pytest.approx(1.0)


def test_evaluate_pinning_complete():
    assert evaluate_pinning(complete_graph(4), 1.0, 5.0, ()) == pytest.approx(4.0)


def test_evaluate_pinning_monotone_sanity():
    g = path_graph(3)
    big = evaluate_pinning(g, 1.0, 1e6, (0, 1, 2))
    assert big > evaluate_pinning(g, 1.0, 0.0, ())


def test_evaluate_pinning_validation():
    with pytest.raises(ValidationError):
        evaluate_pinning(path_graph(3), 0.0, 1.0, ())
    with pytest.raises(ValidationError):
        evaluate_pinning(path_graph(3), 1.0, -1.0, ())


def test_greedy_matches_exhaustive_star():
    g = star_graph(4)
    greedy = greedy_select(g, 1.0, 10.0, 1)
    best = exhaustive_select(g, 1.0, 10.0, 1)
    assert greedy.pinned == best.pinned
    assert greedy.objective == pytest.approx(best.objective, abs=1e-12)


def test_greedy_budget_extremes():
    g = path_graph(4)
    empty = greedy_select(g, 1.0, 5.0, 0)
    assert empty.pinned == ()
    assert empty.objective == pytest.approx(evaluate_pinning(g, 1.0, 5.0, ()))
    assert empty.evaluations == 0
    full = greedy_select(g, 1.0, 5.0, 4)
    assert sorted(full.pinned) == [0, 1, 2, 3]
    assert full.objective == pytest.approx(evaluate_pinning(g, 1.0, 5.0, (0, 1, 2, 3)))


def test_greedy_evaluation_count():
    g = cycle_graph(6)
    res = greedy_select(g, 1.0, 3.0, 3)
    assert res.evaluations == 6 + 5 + 4


def test_degree_select():
    assert degree_select(star_graph(4), 1.0, 10.0, 1).pinned == (0,)
    assert degree_select(cycle_graph(5), 1.0, 10.0, 2).pinned == (0, 1)
    assert degree_select(path_graph(3), 1.0, 10.0, 1).pinned == (1,)
    assert degree_select(path_graph(3), 1.0, 10.0, 1).evaluations == 1


def test_exhaustive_full_budget():
    g = cycle_graph(4)
    res = exhaustive_select(g, 1.0, 2.0, 4)
    assert res.pinned == (0, 1, 2, 3)


def test_exhaustive_guard():
    g = erdos_renyi(60, 0.3, seed=0)
    with pytest.raises(CombinatorialGuardError) as exc:
        exhaustive_select(g, 1.0, 2.0, 10)
    assert exc.value.subset_count > 10**6


def test_budget_validation():
    with pytest.raises(ValidationError):
        greedy_select(path_graph(3), 1.0, 1.0, 4)
    with pytest.raises(ValidationError):
        exhaustive_select(path_graph(3), 1.0, 1.0, -1)


@pytest.mark.parametrize("g, budget", [(Graph(3), 3), (Graph(3), 1), (Graph(1), 1)])
def test_greedy_answers_on_edgeless_and_one_node_graphs(g, budget):
    # the empty pin set has no nonzero eigenvalue here, but no pick depends on it
    greedy = greedy_select(g, 1.0, 2.0, budget)
    best = exhaustive_select(g, 1.0, 2.0, budget)
    assert (greedy.pinned, greedy.objective) == (best.pinned, best.objective)
    assert greedy.objective == 2.0


@pytest.mark.parametrize("select", [greedy_select, degree_select, exhaustive_select])
@pytest.mark.parametrize("budget", [True, 1.0, 2.5, "2"])
def test_budget_must_be_an_integer(select, budget):
    with pytest.raises(ValidationError, match="^budget .* must be an integer$"):
        select(complete_graph(4), 1.0, 3.0, budget)


def test_numpy_integer_budget_accepted():
    g = star_graph(5)
    assert greedy_select(g, 1.0, 3.0, np.int64(2)) == greedy_select(g, 1.0, 3.0, 2)


def test_greedy_never_beats_exhaustive():
    rng = np.random.default_rng(808)
    graphs = [path_graph(6), cycle_graph(7), star_graph(8), complete_graph(5)]
    graphs += [random_connected_graph(rng, n, 0.4) for n in (8, 10, 12)]
    for g in graphs:
        for budget in (1, 2, 3):
            greedy = greedy_select(g, 1.0, 5.0, budget)
            best = exhaustive_select(g, 1.0, 5.0, budget)
            assert greedy.objective <= best.objective + 1e-10


def test_objective_monotone_in_budget():
    # Monotone from budget 1 upward (positive definite regime). The 0 -> 1
    # transition can genuinely drop the smallest nonzero eigenvalue: the
    # first pin turns the Laplacian zero mode into a new small eigenvalue
    # (cycle C6 at kappa=4: 1.0 down to 0.2008).
    rng = np.random.default_rng(809)
    for g in [cycle_graph(6), random_connected_graph(rng, 9, 0.5)]:
        for select in (greedy_select, exhaustive_select, degree_select):
            objs = [select(g, 1.0, 4.0, b).objective for b in range(1, 4)]
            assert all(b >= a - 1e-10 for a, b in zip(objs, objs[1:]))


def test_budget_zero_can_beat_budget_one():
    # documents the rank-change effect behind the budget >= 1 restriction
    g = cycle_graph(6)
    assert greedy_select(g, 1.0, 4.0, 1).objective < evaluate_pinning(g, 1.0, 4.0, ())


def test_determinism():
    g = erdos_renyi(10, 0.5, seed=5)
    assert is_connected(g)
    a = greedy_select(g, 1.0, 6.0, 3)
    b = greedy_select(g, 1.0, 6.0, 3)
    assert a == b
    assert exhaustive_select(g, 1.0, 6.0, 2) == exhaustive_select(g, 1.0, 6.0, 2)


@settings(max_examples=60, deadline=None)
@given(
    g=graphs(),
    kappa=st.sampled_from([0.0, 1e-12, 1e-3, 2.0, 50.0, 1e4]),
    sigma=st.sampled_from([0.5, 1.0, 3.0]),
)
def test_greedy_equals_dense_reference_property(g, kappa, sigma):
    # picks, objective (==) and evaluations, on every budget, including
    # disconnected and edgeless graphs, kappa 0 and ties
    for budget in range(g.num_nodes + 1):
        expected = outcome(reference_greedy, g, sigma, kappa, budget)
        assert outcome(greedy_select, g, sigma, kappa, budget) == expected


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_greedy_equals_dense_reference_er150(seed):
    g = erdos_renyi(150, 0.05, seed=seed)
    assert greedy_select(g, 1.0, 5.0, 5) == reference_greedy(g, 1.0, 5.0, 5)


@pytest.mark.parametrize("pinned", [(), (0,), (3, 17)])
@pytest.mark.parametrize("kappa", [0.5, 5.0, 80.0])
def test_secular_scores_match_dense_solves(pinned, kappa):
    g = erdos_renyi(40, 0.2, seed=2)
    assert is_connected(g)
    base = eig_sym(pinned_operator(g, 1.0, kappa, pinned))
    nodes = [i for i in range(g.num_nodes) if i not in pinned]
    scores = _secular_scores(base, kappa, nodes)
    dense = [evaluate_pinning(g, 1.0, kappa, pinned + (i,)) for i in nodes]
    assert scores == pytest.approx(dense, rel=1e-12)


SECULAR_CASES = {
    "er400": (erdos_renyi(400, 0.05, seed=4), (3, 17)),
    "complete": (complete_graph(7), (0,)),
    "cycle": (cycle_graph(9), ()),
    # no pins on two components: lam_1 = lam_2 = 0
    "disconnected": (disjoint_union(complete_graph(4), path_graph(5)), ()),
    # the pinned K3 lifts its nodes off v_1 = the K2's indicator: z_1 = 0 there
    "z1_zero": (disjoint_union(complete_graph(3), complete_graph(2)), (0,)),
    "one_node": (Graph(1), ()),
}


@pytest.mark.parametrize("case", SECULAR_CASES)
@pytest.mark.parametrize("kappa", [0.0, 1e-12, 5.0, 1e4])
def test_secular_scores_match_bisection_and_dense_solves(case, kappa):
    g, pinned = SECULAR_CASES[case]
    m = pinned_operator(g, 1.0, kappa, pinned)
    base = eig_sym(m)
    nodes = [i for i in range(g.num_nodes) if i not in pinned]
    scores = _secular_scores(base, kappa, nodes)
    ulps = np.finfo(float).eps * (1.0 + base.eigenvalues[0] + kappa)
    assert np.abs(scores - bisect_secular_scores(base, kappa, nodes)).max() <= 4 * ulps
    # Dense solves on at most 20 nodes, spread over the graph. Their own error
    # grows with N: at N = 400 the bisection too is 15 ulps off them.
    for node, score in list(zip(nodes, scores))[:: max(1, len(nodes) // 20)]:
        pinned_i = m.array.copy()
        pinned_i[node, node] += kappa
        assert abs(score - np.linalg.eigvalsh(pinned_i)[0]) <= 32 * ulps
