import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinnet import (
    CombinatorialGuardError,
    Graph,
    SelectionResult,
    ValidationError,
    complete_graph,
    connected_components,
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
    wins, in index order; a round whose values all read 0.0 pins the
    smallest node of the first component with no pin, else the smallest
    candidate. greedy_select must match it bit for bit."""
    if not 0 <= budget <= g.num_nodes:
        raise ValidationError(f"budget {budget} must be between 0 and {g.num_nodes}")
    best_val = evaluate_pinning(g, sigma, kappa, ())
    chosen = []
    evaluations = 0
    for _ in range(budget):
        cands = [i for i in range(g.num_nodes) if i not in chosen]
        vals = [evaluate_pinning(g, sigma, kappa, chosen + [cand]) for cand in cands]
        evaluations += len(cands)
        best_val = max(vals)
        if best_val == 0.0:
            free = [c for c in connected_components(g) if not set(c) & set(chosen)]
            chosen.append(free[0][0] if free else cands[0])
        else:
            chosen.append(cands[vals.index(best_val)])
    return SelectionResult(tuple(chosen), float(best_val), "greedy", evaluations)


def test_evaluate_pinning_path3():
    # kappa 0 is no control: sigma L keeps its zero mode with or without pins
    g = path_graph(3)
    assert evaluate_pinning(g, 1.0, 0.0, ()) == 0.0
    assert evaluate_pinning(g, 1.0, 0.0, (0,)) == 0.0


def test_evaluate_pinning_complete():
    assert evaluate_pinning(complete_graph(4), 1.0, 5.0, ()) == 0.0


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
    # every node is its own component: 2 I once all are pinned, singular before
    greedy = greedy_select(g, 1.0, 2.0, budget)
    best = exhaustive_select(g, 1.0, 2.0, budget)
    assert (greedy.pinned, greedy.objective) == (best.pinned, best.objective)
    assert greedy.objective == (2.0 if budget == g.num_nodes else 0.0)


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
    # Monotone from budget 0: each pin adds a positive semidefinite
    # kappa e_i e_i^T, which cannot lower lambda_min (0 with no pin).
    rng = np.random.default_rng(809)
    for g in [cycle_graph(6), random_connected_graph(rng, 9, 0.5)]:
        for select in (greedy_select, exhaustive_select, degree_select):
            objs = [select(g, 1.0, 4.0, b).objective for b in range(4)]
            assert objs[0] == 0.0 < objs[1]
            assert all(b >= a - 1e-10 for a, b in zip(objs, objs[1:]))


@settings(max_examples=40, deadline=None)
@given(g=graphs(), kappa=st.sampled_from([1e-3, 2.0, 50.0, 1e4]))
def test_objective_positive_iff_every_component_can_be_pinned(g, kappa):
    # greedy's zero rounds pin one component each, as exhaustive's optimum does
    components = len(connected_components(g))
    for budget in range(g.num_nodes + 1):
        for select in (greedy_select, exhaustive_select):
            assert (select(g, 1.0, kappa, budget).objective > 0.0) == (budget >= components)


def test_one_pin_per_component_on_k5_plus_p6():
    # every pin set of size 2 that leaves K5 or P6 unpinned is singular
    g = disjoint_union(complete_graph(5), path_graph(6))
    greedy = greedy_select(g, 1.0, 5.0, 2)
    best = exhaustive_select(g, 1.0, 5.0, 2)
    assert greedy.pinned == best.pinned == (0, 7)
    assert greedy.objective == best.objective == pytest.approx(0.1751, abs=1e-4)
    assert degree_select(g, 1.0, 5.0, 2) == SelectionResult((0, 1), 0.0, "degree", 1)


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
    # disconnected and edgeless graphs, kappa 0, zero rounds and ties
    for budget in range(g.num_nodes + 1):
        assert greedy_select(g, sigma, kappa, budget) == reference_greedy(g, sigma, kappa, budget)


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
