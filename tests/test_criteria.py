import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pinnet import (
    Graph,
    PinnedSystemSpec,
    PreconditionError,
    ScalarSaturatedDynamics,
    SimConfig,
    SymMatrix,
    ThresholdUndefinedError,
    ValidationError,
    check_decay,
    complete_graph,
    disjoint_union,
    evaluate,
    evaluate_pinning,
    iterative_bound,
    kappa_threshold,
    lambda_max,
    lambda_min_gt0,
    laplacian,
    path_graph,
    pinned_operator,
    rhs_threshold,
    simulate,
)
from pinnet.criteria import EXACT_MARGIN, sigma_lambda_min_gt0

from helpers import graphs, random_connected_graph, scalar_spec


def kn_spec(n, sigma, kappa, pinned, f_bound):
    return scalar_spec(complete_graph(n), sigma, kappa, pinned, f_bound)


# ---------------------------------------------------------------------------
# structural identities


def test_structural_scalar_holds_for_any_kappa():
    for kappa in [0.5, 1.0, 7.0]:
        rep = evaluate(scalar_spec(path_graph(3), 1.0, kappa, (0,), 0.1))
        assert rep.structural_ok
        assert rep.identity_residual == pytest.approx(0.0, abs=1e-15)


def test_structural_scalar_violated():
    spec = scalar_spec(path_graph(3), 1.0, 2.0, (0,), 0.1)
    spec = replace(spec, k_matrix=np.array([[2.5]]))
    rep = evaluate(spec)
    assert not rep.structural_ok
    assert rep.identity_residual == pytest.approx(1.0, abs=1e-12)


def test_structural_identity_case_n2():
    kappa = 3.0
    spec = PinnedSystemSpec(
        graph=path_graph(3),
        sigma=1.0,
        kappa=kappa,
        b_matrix=np.eye(2),
        k_matrix=kappa * np.eye(2),
        q_matrix=SymMatrix(np.eye(2)),
        pinned=(0,),
        f_bound=0.1,
    )
    assert evaluate(spec).structural_ok


# ---------------------------------------------------------------------------
# rhs threshold and decay condition


def test_rhs_threshold_scalar():
    assert rhs_threshold(scalar_spec(path_graph(3), 1.0, 1.0, (), 0.5)) == pytest.approx(0.5)
    assert rhs_threshold(scalar_spec(path_graph(3), 1.0, 1.0, (), 0.0)) == 0.0


def test_rhs_threshold_n2():
    spec = PinnedSystemSpec(
        graph=path_graph(3),
        sigma=1.0,
        kappa=1.0,
        b_matrix=np.diag([1.0, 2.0]),
        k_matrix=np.diag([1.0, 2.0]),
        q_matrix=SymMatrix(np.eye(2)),
        pinned=(),
        f_bound=1.0,
    )
    # lambda_min(QB + B^T Q^T) = 2, ||Q|| = 1
    assert rhs_threshold(spec) == pytest.approx(1.0)


def test_rhs_threshold_degenerate():
    spec = PinnedSystemSpec(
        graph=path_graph(3),
        sigma=1.0,
        kappa=1.0,
        b_matrix=np.zeros((1, 1)),
        k_matrix=np.zeros((1, 1)),
        q_matrix=SymMatrix(np.eye(1)),
        pinned=(),
        f_bound=1.0,
    )
    with pytest.raises(PreconditionError):
        rhs_threshold(spec)


@pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
def test_rhs_threshold_degeneracy_is_scale_free(scale):
    # QB + B^T Q^T = 2 scale diag(1, eps): degenerate for eps = 1e-14 and not
    # for eps = 1e-6, whatever the scale of Q
    def spec(eps):
        b = np.diag([1.0, eps])
        return PinnedSystemSpec(
            graph=path_graph(3), sigma=1.0, kappa=1.0, b_matrix=b, k_matrix=b,
            q_matrix=SymMatrix(scale * np.eye(2)), pinned=(0,), f_bound=1.0,
        )

    assert rhs_threshold(spec(1e-6)) == pytest.approx(1e6, rel=1e-12)
    with pytest.raises(PreconditionError):
        rhs_threshold(spec(1e-14))


@pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
@pytest.mark.parametrize("eps", [-1e-3, -1e-12])
def test_structural_sign_check_is_scale_free(scale, eps):
    # QB + B^T Q^T = 2 scale diag(1, eps) with K = kappa B: the identity holds,
    # and lambda_min < 0 fails the sign test for eps = -1e-3 at every scale of
    # Q, while eps = -1e-12 is round-off next to the norm 2 scale
    b = np.diag([1.0, eps])
    spec = PinnedSystemSpec(
        graph=path_graph(3), sigma=1.0, kappa=2.0, b_matrix=b, k_matrix=2.0 * b,
        q_matrix=SymMatrix(scale * np.eye(2)), pinned=(0,), f_bound=1.0,
    )
    assert evaluate(spec).structural_ok is (eps == -1e-12)


def test_f_condition():
    g = path_graph(3)  # sigma*lambda_min>0 = 1

    def f_condition(spec):
        return rhs_threshold(spec) < sigma_lambda_min_gt0(spec)

    assert f_condition(scalar_spec(g, 1.0, 1.0, (), 0.5))
    assert not f_condition(scalar_spec(g, 1.0, 1.0, (), 1.5))
    assert f_condition(scalar_spec(g, 1.0, 1.0, (), 0.0))


# ---------------------------------------------------------------------------
# closed-form certificate bound


def test_iterative_bound_path3_value():
    # one bordered-matrix term: min(5, 1) - 2 w / (eta + sqrt(eta^2 + 4 w)),
    # w = sigma*kappa*deg_1 = 10, eta = 4
    bound = iterative_bound(scalar_spec(path_graph(3), 1.0, 5.0, (1,), 0.0))
    assert bound == pytest.approx(-0.7416573867739416, abs=1e-12)
    # sound: below the exact eigenvalue
    assert bound <= 0.6833752096446002


def test_iterative_bound_empty_pinned():
    assert iterative_bound(scalar_spec(path_graph(3), 1.0, 5.0, (), 0.0)) == pytest.approx(1.0)
    # no pole for the empty set
    assert iterative_bound(scalar_spec(path_graph(3), 1.0, 0.5, (), 0.0)) == pytest.approx(1.0)


def test_iterative_bound_pole():
    # P3 has lambda_min>0(L) = 1, which the solver returns as 1 - 2^-52; the
    # pole is at the computed s, whatever its last bit
    def bound(kappa):
        return iterative_bound(scalar_spec(path_graph(3), 1.0, kappa, (1,), 0.0))

    s = sigma_lambda_min_gt0(scalar_spec(path_graph(3), 1.0, 1.0, (1,), 0.0))
    assert s == pytest.approx(1.0, rel=1e-12)
    for kappa in (s, np.nextafter(s, 0.0), 0.5):
        with pytest.raises(PreconditionError):
            bound(kappa)
    assert math.isfinite(bound(np.nextafter(s, 2.0)))


def test_iterative_bound_large_kappa_asymptote():
    # saturates at sigma*(lambda_min>0(L) - sum deg) as kappa grows
    g = path_graph(3)
    b = iterative_bound(scalar_spec(g, 1.0, 1e8, (1,), 0.0))
    assert b == pytest.approx(1.0 - 2.0, abs=1e-6)
    b5 = iterative_bound(kn_spec(5, 1.0, 1e8, (0,), 0.0))
    assert b5 == pytest.approx(5.0 - 4.0, abs=1e-5)


def test_iterative_bound_sound_random():
    rng = np.random.default_rng(314)
    for _ in range(40):
        n = int(rng.integers(5, 25))
        g = random_connected_graph(rng, n, 0.4)
        sigma = float(rng.choice([0.5, 1.0, 2.0]))
        s = sigma * lambda_min_gt0(__import__("pinnet").laplacian(g))
        pinned = tuple(sorted(rng.choice(n, size=int(rng.integers(1, 5)), replace=False).tolist()))
        kappa = float(rng.uniform(1.01, 20.0)) * s
        spec = scalar_spec(g, sigma, kappa, pinned, 0.0)
        exact = lambda_min_gt0(pinned_operator(g, sigma, kappa, pinned))
        assert iterative_bound(spec) <= exact + 1e-8


@settings(max_examples=60, deadline=None)
@given(
    g=graphs(max_nodes=12),
    data=st.data(),
    sigma=st.sampled_from([0.5, 1.0, 2.0]),
    factor=st.floats(1.01, 20.0),
)
def test_iterative_bound_sound_property(g, data, sigma, factor):
    # certificate soundness: iterative_bound <= lambda_min>0(sigma L + kappa P)
    # for kappa > sigma lambda_min>0(L), over generated graphs and pin sets
    assume(g.num_edges > 0)
    pinned = data.draw(st.lists(st.integers(0, g.num_nodes - 1), unique=True, max_size=4))
    kappa = factor * sigma * lambda_min_gt0(laplacian(g))
    spec = scalar_spec(g, sigma, kappa, pinned, 0.0)
    exact = lambda_min_gt0(pinned_operator(g, sigma, kappa, pinned))
    assert iterative_bound(spec) <= exact + 1e-8 * (1.0 + abs(exact))


# ---------------------------------------------------------------------------
# kappa threshold


def test_kappa_threshold_k5():
    # complete graph on 5 nodes, one pinned node of degree 4, rhs = 0.5:
    # s = 5, threshold = s (s - rhs) / ((s - rhs) - sigma D) = 5 * 4.5 / 0.5 = 45
    spec = kn_spec(5, 1.0, 1.0, (0,), 0.5)
    assert kappa_threshold(spec) == pytest.approx(45.0, rel=1e-9)


def test_kappa_threshold_is_sufficient_not_smallest():
    # K5, sigma 1, pin 0, f_bound 0.5: the Li-Li certificate already clears
    # rhs at kappa 5.01, far below the chain-bound inversion (45 up to
    # round-off), and verdict_theorem means kappa >= kappa_threshold
    rep = evaluate(kn_spec(5, 1.0, 5.01, (0,), 0.5))
    assert rep.rhs_threshold == pytest.approx(0.5)
    assert rep.iterative_bound == pytest.approx(0.5284, abs=1e-4)
    assert rep.iterative_bound >= rep.rhs_threshold
    assert rep.verdict_exact
    kthr = rep.kappa_threshold
    assert kthr == pytest.approx(45.0, rel=1e-12)
    assert not rep.verdict_theorem
    assert not evaluate(kn_spec(5, 1.0, np.nextafter(kthr, 0.0), (0,), 0.5)).verdict_theorem
    assert evaluate(kn_spec(5, 1.0, kthr, (0,), 0.5)).verdict_theorem


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 30),
    sigma=st.floats(0.1, 5.0),
    f_frac=st.floats(0.0, 0.99),
    node=st.integers(0, 29),
    factor=st.floats(1.0, 10.0),
)
def test_kappa_threshold_sufficient_property(n, sigma, f_frac, node, factor):
    # kappa >= kappa_threshold => iterative_bound >= rhs_threshold, single pin on K_n
    pinned = (node % n,)
    kthr = kappa_threshold(kn_spec(n, sigma, 1.0, pinned, f_frac * sigma))
    spec = kn_spec(n, sigma, kthr * factor, pinned, f_frac * sigma)
    rhs = rhs_threshold(spec)
    assert iterative_bound(spec) >= rhs - 1e-8 * (1.0 + abs(rhs))


def test_kappa_threshold_empty_pinned():
    spec = scalar_spec(path_graph(3), 1.0, 1.0, (), 0.5)
    with pytest.raises(ThresholdUndefinedError) as exc:
        kappa_threshold(spec)
    assert exc.value.failing_inequality == "component {0..2} has no pinned node"


def test_kappa_threshold_f_condition_fails():
    spec = scalar_spec(path_graph(3), 1.0, 1.0, (0,), 1.5)
    with pytest.raises(ThresholdUndefinedError) as exc:
        kappa_threshold(spec)
    assert "rhs_threshold" in exc.value.failing_inequality


def test_kappa_threshold_saturates():
    # pinned degree sum reaches the algebraic connectivity: certificate
    # cannot clear any positive rhs
    for fb in [0.5, 0.0]:
        spec = scalar_spec(path_graph(3), 1.0, 1.0, (0,), fb)
        if fb == 0.0:
            # margin equals sigma*D exactly: still unattainable
            with pytest.raises(ThresholdUndefinedError):
                kappa_threshold(spec)
        else:
            with pytest.raises(ThresholdUndefinedError) as exc:
                kappa_threshold(spec)
            assert "degree sum" in exc.value.failing_inequality


def test_kappa_threshold_round_trip_consistency():
    rng = np.random.default_rng(271828)
    for _ in range(25):
        n = int(rng.integers(3, 25))
        sigma = float(rng.choice([0.5, 1.0, 2.0]))
        fb = float(rng.uniform(0.05, 0.95)) * sigma
        node = int(rng.integers(0, n))
        kthr = kappa_threshold(kn_spec(n, sigma, 1.0, (node,), fb))
        spec = kn_spec(n, sigma, kthr, (node,), fb)
        rhs = rhs_threshold(spec)
        assert iterative_bound(spec) >= rhs - 1e-9


# ---------------------------------------------------------------------------
# exact condition and full evaluation


def test_exact_condition_unpinned_kappa_zero():
    rep = evaluate(scalar_spec(path_graph(3), 1.0, 0.0, (), 0.5))
    assert rep.structural_ok
    assert rep.exact_lambda >= rep.rhs_threshold - EXACT_MARGIN * abs(rep.rhs_threshold)
    assert rep.exact_lambda == pytest.approx(1.0)
    # consensus zero mode shows up in the true smallest eigenvalue
    assert abs(rep.exact_lambda_min) <= 1e-9


def test_exact_condition_huge_f_bound():
    rep = evaluate(scalar_spec(path_graph(3), 1.0, 3.0, (0,), 1e3))
    assert rep.structural_ok
    assert rep.exact_lambda < rep.rhs_threshold - EXACT_MARGIN * abs(rep.rhs_threshold)


def test_exact_condition_reports_product_form():
    spec = kn_spec(5, 1.0, 45.0, (0,), 0.5)
    rep = evaluate(spec)
    assert rep.structural_ok
    assert rep.exact_lambda >= rep.rhs_threshold - EXACT_MARGIN * abs(rep.rhs_threshold)
    # product form: 0.5 * lambda_min * lambda_min(QB+B^TQ^T) vs f_bound*||Q||
    assert rep.proposition_lhs == pytest.approx(rep.exact_lambda_min)
    assert rep.proposition_rhs == pytest.approx(0.5)


def test_evaluate_k5_at_threshold():
    base = kn_spec(5, 1.0, 1.0, (2,), 0.5)
    kthr = kappa_threshold(base)
    spec = kn_spec(5, 1.0, kthr, (2,), 0.5)
    rep = evaluate(spec)
    assert rep.structural_ok
    assert rep.f_condition_ok
    assert rep.kappa_threshold == pytest.approx(kthr)
    assert rep.verdict_theorem
    assert rep.verdict_exact
    assert rep.iterative_bound >= rep.rhs_threshold - 1e-9
    assert rep.connected
    assert rep.flags == ()


def test_evaluate_path3_kappa3_not_certified():
    # exact smallest nonzero eigenvalue is 0.3004 < rhs 0.5: the pinned
    # system is genuinely uncertifiable at this threshold
    rep = evaluate(scalar_spec(path_graph(3), 1.0, 3.0, (0,), 0.5))
    assert rep.structural_ok
    assert rep.f_condition_ok
    assert rep.kappa_threshold is None
    assert "kappa_threshold" in rep.reasons
    assert rep.exact_lambda == pytest.approx(0.300371851724682, abs=1e-9)
    assert not rep.verdict_theorem
    assert not rep.verdict_exact


def test_evaluate_structural_violation_kills_verdicts():
    spec = kn_spec(5, 1.0, 45.0, (0,), 0.5)
    spec = replace(spec, k_matrix=2.0 * spec.k_matrix)
    rep = evaluate(spec)
    assert not rep.structural_ok
    assert not rep.verdict_theorem
    assert not rep.verdict_exact


def test_evaluate_flags():
    import pinnet

    g = pinnet.disjoint_union(path_graph(3), path_graph(2))
    rep = evaluate(scalar_spec(g, 1.0, 10.0, (0,), 0.0))
    assert not rep.connected
    assert "disconnected" in rep.flags
    assert "unpinned_component" in rep.flags
    rep2 = evaluate(scalar_spec(path_graph(3), 1.0, 2.0, (), 0.1))
    assert "no_pinned_nodes" in rep2.flags


@pytest.mark.parametrize(
    "graph, pinned, kappa, f_bound, component",
    [
        # f_bound 0.5 is ScalarSaturatedDynamics(0.3, 0.2), whose V grows
        (complete_graph(5), (), 100.0, 0.5, "{0..4}"),
        (disjoint_union(complete_graph(5), complete_graph(5)), (0,), 300.0, 0.5, "{5..9}"),
        (Graph(4, ((0, 1), (1, 2))), (3,), 1.0, 0.1, "{0..2}"),
        (Graph(3), (0,), 2.0, 0.1, "{1}"),
    ],
    ids=["k5_no_pins", "two_k5_one_pin", "isolated_pin", "edgeless"],
)
def test_unpinned_component_is_never_certified(graph, pinned, kappa, f_bound, component):
    spec = scalar_spec(graph, 1.0, kappa, pinned, f_bound)
    rep = evaluate(spec)
    assert not rep.verdict_exact
    assert not rep.verdict_theorem
    assert rep.kappa_threshold is None
    assert rep.reasons["unpinned_component"].startswith(f"component {component} has no pinned node")
    with pytest.raises(ThresholdUndefinedError):
        kappa_threshold(spec)


@pytest.mark.parametrize("kappa", [0.0, 1e-12])
def test_singular_operator_is_never_certified(kappa):
    # every component pinned, but a gain within the rank tolerance leaves
    # sigma L + kappa P singular; lambda_min>0 skips its smallest eigenvalue
    spec = kn_spec(5, 1.0, kappa, (0,), 0.5)
    rep = evaluate(spec)
    assert rep.exact_lambda == pytest.approx(5.0)
    assert rep.exact_lambda >= rep.rhs_threshold
    assert abs(rep.exact_lambda_min) <= 1e-9
    assert not rep.verdict_exact
    assert not rep.verdict_theorem
    assert "unpinned_component" not in rep.reasons
    assert rep.reasons["singular_operator"].startswith("lambda_min(sigma L + kappa P) = ")
    # and the error indeed grows: f = 0.3 x + 0.2 tanh x has f_bound 0.5
    x0 = np.random.default_rng(5).uniform(-1.0, 1.0, size=(5, 1))
    config = SimConfig(spec, ScalarSaturatedDynamics(0.3, 0.2), x0, np.zeros(1), 0.0, 5.0, 0.01)
    assert not check_decay(simulate(config)).ok


@settings(max_examples=100, deadline=None)
@given(
    g=graphs(max_nodes=6),
    data=st.data(),
    sigma=st.sampled_from([0.5, 1.0, 2.0]),
    kappa=st.sampled_from([0.0, 1e-12, 0.1, 1.0, 5.0, 20.0]),
    a=st.floats(-1.0, 1.0),
    b=st.floats(-1.0, 1.0),
    seed=st.integers(0, 2**16),
)
def test_verdicts_imply_decay_property(g, data, sigma, kappa, a, b, seed):
    """verdict_theorem => verdict_exact => the simulated error decays."""
    pinned = data.draw(st.lists(st.integers(0, g.num_nodes - 1), unique=True))
    dyn = ScalarSaturatedDynamics(a, b)
    spec = scalar_spec(g, sigma, kappa, pinned, dyn.f_bound)
    rep = evaluate(spec)
    assert rep.verdict_exact or not rep.verdict_theorem
    if not rep.verdict_exact:
        return
    # RK4 step with dt (lambda_max + f_bound) <= 0.5, over a short horizon so
    # the reference s' = f(s) stays below the overflow guard
    t_end = 5.0
    rate = lambda_max(pinned_operator(g, sigma, kappa, pinned)) + dyn.f_bound
    dt = t_end / math.ceil(2.0 * t_end * rate)
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(-1.0, 1.0, size=(g.num_nodes, 1))
    s0 = rng.uniform(-1.0, 1.0, size=1)
    traj = simulate(SimConfig(spec, dyn, x0, s0, 0.0, t_end, dt))
    assert check_decay(traj).ok


def test_evaluate_never_aborts_on_field_errors():
    # edgeless graph: lambda_min>0(L) undefined, but evaluation still returns
    import pinnet

    rep = evaluate(scalar_spec(pinnet.Graph(3), 1.0, 2.0, (0,), 0.1))
    assert rep.sigma_lambda is None
    assert "sigma_lambda" in rep.reasons
    assert not rep.verdict_theorem


def test_theorem_implies_exact_random():
    rng = np.random.default_rng(400)
    for _ in range(30):
        n = int(rng.integers(3, 20))
        sigma = float(rng.choice([0.5, 1.0, 2.0]))
        fb = float(rng.uniform(0.05, 0.95)) * sigma
        node = int(rng.integers(0, n))
        kthr = kappa_threshold(kn_spec(n, sigma, 1.0, (node,), fb))
        kappa = kthr * float(rng.uniform(1.0, 3.0))
        rep = evaluate(kn_spec(n, sigma, kappa, (node,), fb))
        assert rep.verdict_theorem
        assert rep.verdict_exact


def test_monotonicity_exact_lambda():
    rng = np.random.default_rng(500)
    for _ in range(10):
        n = int(rng.integers(5, 15))
        g = random_connected_graph(rng, n, 0.5)
        s = sigma_lambda_min_gt0(scalar_spec(g, 1.0, 1.0, (), 0.0))
        pinned = sorted(rng.choice(n, size=3, replace=False).tolist())
        # nondecreasing in kappa
        vals = [
            lambda_min_gt0(pinned_operator(g, 1.0, k, pinned))
            for k in np.linspace(0.5 * s, 10 * s, 6)
        ]
        assert all(b >= a - 1e-10 for a, b in zip(vals, vals[1:]))
        # nondecreasing under pinned-set inclusion
        grown = [
            lambda_min_gt0(pinned_operator(g, 1.0, 4.0 * s, pinned[:k]))
            for k in range(1, 4)
        ]
        assert all(b >= a - 1e-10 for a, b in zip(grown, grown[1:]))


def test_pins_must_be_integers():
    k3 = complete_graph(3)
    for bad in [(0.9,), (True,), (False,), ("0",), (1.7,), (np.float64(1.0),), (np.bool_(True),)]:
        with pytest.raises(ValidationError, match="must be an integer"):
            scalar_spec(k3, 1.0, 1.0, bad, 0.0)
        with pytest.raises(ValidationError, match="must be an integer"):
            pinned_operator(k3, 1.0, 2.0, bad)
        with pytest.raises(ValidationError, match="must be an integer"):
            evaluate_pinning(k3, 1.0, 2.0, bad)
    # Python and numpy integers stay accepted, and come out as Python ints
    spec = scalar_spec(k3, 1.0, 1.0, (np.int64(2), np.int32(0)), 0.0)
    assert spec.pinned == (2, 0)
    assert all(type(i) is int for i in spec.pinned)
    assert np.array_equal(
        pinned_operator(k3, 1.0, 2.0, np.array([1])).array,
        pinned_operator(k3, 1.0, 2.0, (1,)).array,
    )


def test_spec_validation():
    with pytest.raises(ValidationError):
        scalar_spec(path_graph(3), -1.0, 1.0, (), 0.0)
    with pytest.raises(ValidationError, match="f_bound must be non-negative"):
        scalar_spec(path_graph(3), 1.0, 1.0, (), -0.1)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValidationError, match="sigma must be finite"):
            scalar_spec(path_graph(3), bad, 1.0, (), 0.0)
        with pytest.raises(ValidationError, match="kappa must be finite"):
            scalar_spec(path_graph(3), 1.0, bad, (), 0.0)
        with pytest.raises(ValidationError, match="f_bound must be finite"):
            scalar_spec(path_graph(3), 1.0, 1.0, (), bad)
    with pytest.raises(ValidationError):
        scalar_spec(path_graph(3), 1.0, 1.0, (0, 0), 0.0)
    with pytest.raises(ValidationError):
        scalar_spec(path_graph(3), 1.0, 1.0, (5,), 0.0)
    with pytest.raises(ValidationError):
        PinnedSystemSpec(
            graph=path_graph(3),
            sigma=1.0,
            kappa=1.0,
            b_matrix=np.eye(1),
            k_matrix=np.eye(1),
            q_matrix=SymMatrix(np.array([[-1.0]])),
            pinned=(),
            f_bound=0.0,
        )
    with pytest.raises(ValidationError):
        PinnedSystemSpec(
            graph=path_graph(3),
            sigma=1.0,
            kappa=1.0,
            b_matrix=np.eye(2),
            k_matrix=np.eye(1),
            q_matrix=SymMatrix(np.eye(1)),
            pinned=(),
            f_bound=0.0,
        )


@pytest.mark.parametrize("field, value", [("b_matrix", math.nan), ("k_matrix", math.inf),
                                          ("k_matrix", -math.inf)])
def test_non_finite_b_and_k_are_rejected(field, value):
    # they would otherwise reach simulate as a first step that overflows
    spec = scalar_spec(complete_graph(3), 1.0, 2.0, (0,), 0.1)
    with pytest.raises(ValidationError, match="B and K entries must be finite"):
        replace(spec, **{field: np.array([[value]])})


def test_asymmetric_q_is_refused_at_any_scale():
    # Q = 1e-13 [[2, 1], [0, 2]] is as far from symmetric as [[2, 1], [0, 2]]
    for c in (1.0, 1e-13):
        with pytest.raises(ValidationError, match="not symmetric"):
            PinnedSystemSpec(complete_graph(3), 1.0, 2.0, np.eye(2), 2.0 * np.eye(2),
                             c * np.array([[2.0, 1.0], [0.0, 2.0]]), (0,), 0.1)
