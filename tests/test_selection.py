import json

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
    evaluate,
    evaluate_pinning,
    exhaustive_select,
    greedy_select,
    is_connected,
    path_graph,
    pinned_lambda_min_gt0,
    pinned_operator,
    star_graph,
    to_edge_list,
)
from pinnet.cli import main
from pinnet.selection import TIE_RTOL, _secular_scores
from pinnet.spectral import eig_sym

from helpers import bisect_secular_scores, graphs, random_connected_graph, scalar_spec


def reference_round(g, sigma, kappa, chosen):
    """One round of the dense greedy: its pick, and for a round not decided by
    structure each candidate's dense value, the tie band's edge and the unit
    1 + lambda_max + kappa (else None for all three).

    While two or more components have no pin, or at kappa = 0, every value is
    0.0 by structure, and the round pins the smallest node of the first
    component with no pin, else the smallest candidate. Otherwise the
    candidates are the nodes of the one component without a pin, or all
    nodes left, each solved densely, and the pick is the smallest whose value
    is within TIE_RTOL (lambda_max + kappa) of the best, lambda_max that of
    the current operator."""
    free = [c for c in connected_components(g) if not set(c) & set(chosen)]
    if kappa == 0 or len(free) >= 2:
        return (free[0][0] if free else min(set(range(g.num_nodes)) - set(chosen))), None, None, None
    pool = free[0] if free else [i for i in range(g.num_nodes) if i not in chosen]
    vals = {cand: evaluate_pinning(g, sigma, kappa, chosen + [cand]) for cand in pool}
    top = eig_sym(pinned_operator(g, sigma, kappa, chosen)).eigenvalues[0]
    edge = max(vals.values()) - TIE_RTOL * (top + kappa)
    pick = next(c for c in pool if vals[c] >= edge)
    return pick, vals, edge, 1.0 + top + kappa


def reference_greedy(g, sigma, kappa, budget):
    """The dense greedy, reference_round after reference_round: greedy_select
    must match it bit for bit (see assert_greedy_matches_reference)."""
    if not 0 <= budget <= g.num_nodes:
        raise ValidationError(f"budget {budget} must be between 0 and {g.num_nodes}")
    chosen = []
    for _ in range(budget):
        chosen.append(reference_round(g, sigma, kappa, chosen)[0])
    evaluations = sum(range(g.num_nodes - budget + 1, g.num_nodes + 1))
    return SelectionResult(tuple(chosen), evaluate_pinning(g, sigma, kappa, chosen), "greedy",
                           evaluations)


# The secular screen's largest gap from a dense solve, in units of 1 +
# lambda_max + kappa, as test_secular_scores_match_bisection_and_dense_solves
# bounds it.
SCREEN_ERROR = 32 * np.finfo(float).eps


def screen_gap(g, sigma, kappa, chosen, vals):
    """The largest gap between the secular scores of a round's candidates and
    their dense values vals (a dict, as reference_round returns it)."""
    base = eig_sym(pinned_operator(g, sigma, kappa, chosen))
    return float(np.abs(_secular_scores(base, kappa, list(vals)) - list(vals.values())).max())


def assert_greedy_matches_reference(g, sigma, kappa, budget):
    """Greedy equals the dense reference bit for bit, with one exception.

    Where their picks first split, the smaller of the two picks is the one
    candidate that the secular screen and the dense values put on opposite
    sides of the tie band's edge. Its score and the best score each differ
    from their dense values by at most the round's screen gap, so the split
    is allowed only in a round not decided by structure, with that gap
    within SCREEN_ERROR, and with the candidate's dense value within twice
    the gap of the edge."""
    got, want = greedy_select(g, sigma, kappa, budget), reference_greedy(g, sigma, kappa, budget)
    if got.pinned == want.pinned:
        assert got == want
        return
    k = next(i for i, (a, b) in enumerate(zip(got.pinned, want.pinned)) if a != b)
    chosen = list(want.pinned[:k])
    _, vals, edge, unit = reference_round(g, sigma, kappa, chosen)
    assert vals is not None, (got, want)
    gap = screen_gap(g, sigma, kappa, chosen, vals)
    assert gap <= SCREEN_ERROR * unit, (got, want)
    assert abs(vals[min(got.pinned[k], want.pinned[k])] - edge) <= 2 * gap, (got, want)


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


def every_component_pinned(g, pinned) -> bool:
    return all(set(c) & set(pinned) for c in connected_components(g))


ONE_ANSWER_GRAPHS = {
    "er120": (erdos_renyi(120, 0.08, seed=7), 5.0),
    "er60": (erdos_renyi(60, 0.1, seed=1), 3.0),
    "er12": (erdos_renyi(12, 0.3, seed=0), 2.0),
    "k5p6": (disjoint_union(complete_graph(5), path_graph(6)), 5.0),
}


@pytest.mark.parametrize("case, select, budget", [
    ("er120", greedy_select, 3), ("er120", degree_select, 3),
    ("er60", greedy_select, 2), ("er60", degree_select, 2), ("er60", exhaustive_select, 2),
    ("er12", greedy_select, 3), ("er12", exhaustive_select, 3),
    ("k5p6", greedy_select, 2), ("k5p6", degree_select, 2), ("k5p6", exhaustive_select, 2),
])
def test_objective_is_the_one_answer(tmp_path, capsys, case, select, budget):
    # bit for bit, with no tolerance: the objective is evaluate_pinning of the
    # picks, and with every component pinned it is what evaluate and pinnet
    # spectrum report for them (0.09365309608884687 for greedy on ER(120))
    g, kappa = ONE_ANSWER_GRAPHS[case]
    result = select(g, 1.0, kappa, budget)
    assert result.objective == evaluate_pinning(g, 1.0, kappa, result.pinned)
    if not every_component_pinned(g, result.pinned):
        assert result.objective == 0.0  # degree's two K5 hubs
        return
    path = tmp_path / "g.txt"
    path.write_text(to_edge_list(g))
    pins = ",".join(map(str, result.pinned))
    assert main(["spectrum", str(path), "--kappa", repr(kappa), "--pinned", pins, "--json"]) == 0
    reported = json.loads(capsys.readouterr().out)["lambda_min_gt0_pinned"]
    exact = evaluate(scalar_spec(g, 1.0, kappa, result.pinned, 0.1)).exact_lambda
    assert result.objective == pinned_lambda_min_gt0(g, 1.0, kappa, result.pinned)
    assert result.objective == exact == reported


@settings(max_examples=40, deadline=None)
@given(g=graphs(max_nodes=8), kappa=st.sampled_from([0.0, 1e-12, 2.0, 1e4]),
       budget=st.integers(0, 8))
def test_objective_is_the_one_answer_property(g, kappa, budget):
    budget = min(budget, g.num_nodes)
    for select in (greedy_select, degree_select, exhaustive_select):
        result = select(g, 1.0, kappa, budget)
        assert result.objective == evaluate_pinning(g, 1.0, kappa, result.pinned)
        if kappa > 0 and every_component_pinned(g, result.pinned):
            assert result.objective == pinned_lambda_min_gt0(g, 1.0, kappa, result.pinned)
        else:
            assert result.objective == 0.0


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


def test_large_gain_never_scores_a_pinned_network_zero():
    # the ER(80) case at kappa 1e9: every pinned lambda_min (about 0.2 to 0.5)
    # lies below 1e-9 lambda_max, so a rank tolerance read them all as zero
    # and picked (0, 1, 2)
    g = erdos_renyi(80, 0.1, seed=0)
    greedy = greedy_select(g, 1.0, 1e9, 3)
    assert greedy.pinned != (0, 1, 2) and greedy.objective > 0.48
    best = exhaustive_select(g, 1.0, 1e9, 1)
    assert best.pinned == greedy_select(g, 1.0, 1e9, 1).pinned != (0,)
    assert best.objective > 0.0


@pytest.mark.parametrize("g, greedy_picks, exhaustive_picks", [
    (cycle_graph(9), (0, 4, 6), (0, 4)),
    (complete_graph(8), (0, 1, 2), (0, 1)),
], ids=["C9", "K8"])
def test_symmetric_ties_go_to_the_smallest_index(g, greedy_picks, exhaustive_picks):
    # equivalent nodes (pairs) differ only by round-off, which the tie band
    # absorbs; with strictly-larger-wins the picks were (6, 1, 4) and (6, 7, 2)
    # for greedy, and (1, 2) for exhaustive on K8
    assert greedy_select(g, 1.0, 3.0, 3).pinned == greedy_picks
    assert exhaustive_select(g, 1.0, 3.0, 1).pinned == (0,)
    assert exhaustive_select(g, 1.0, 3.0, 2).pinned == exhaustive_picks


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
        assert_greedy_matches_reference(g, sigma, kappa, budget)


def test_greedy_splits_from_the_dense_reference_only_at_the_band_edge():
    # A graph the property test drew: components {0, 1, 2, 5, 6, 7, 9},
    # {3, 4} and {8}, kappa 1e-12. After (0, 3, 8, 1, 2) the screen is about
    # 1 ulp of 1 + lambda_max + kappa off the dense values, and node 4's dense
    # value lies 0.3 ulps below the tie band's edge, its score 0.4 above;
    # every other candidate is 50 ulps or more inside the band. Greedy was
    # seen to pick 4 where the dense rule picks 5; either pick satisfies the
    # contract.
    g = Graph(10, ((0, 7), (1, 2), (1, 6), (1, 9), (2, 5), (2, 7), (3, 4), (6, 9), (7, 9)))
    chosen = [0, 3, 8, 1, 2]
    _, vals, edge, unit = reference_round(g, 1.0, 1e-12, chosen)
    gap = screen_gap(g, 1.0, 1e-12, chosen, vals)
    assert gap <= SCREEN_ERROR * unit
    assert [c for c, v in vals.items() if abs(v - edge) <= 2 * gap] == [4]
    got = greedy_select(g, 1.0, 1e-12, 6)
    assert got.pinned[:5] == tuple(chosen) and got.pinned[5] in (4, 5)
    assert_greedy_matches_reference(g, 1.0, 1e-12, 6)


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
