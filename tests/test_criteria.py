import math
from dataclasses import replace

import numpy as np
import pytest

from pinnet import (
    PinnedSystemSpec,
    PreconditionError,
    SymMatrix,
    ThresholdUndefinedError,
    ValidationError,
    check_structural,
    complete_graph,
    evaluate,
    exact_condition,
    iterative_bound,
    kappa_threshold,
    lambda_min_gt0,
    path_graph,
    pinned_operator,
    rhs_threshold,
)
from pinnet.criteria import sigma_lambda_min_gt0

from helpers import random_connected_graph, scalar_spec


def kn_spec(n, sigma, kappa, pinned, f_bound):
    return scalar_spec(complete_graph(n), sigma, kappa, pinned, f_bound)


# ---------------------------------------------------------------------------
# structural identities


def test_structural_scalar_holds_for_any_kappa():
    for kappa in [0.5, 1.0, 7.0]:
        chk = check_structural(scalar_spec(path_graph(3), 1.0, kappa, (0,), 0.1))
        assert chk.ok
        assert chk.identity_residual == pytest.approx(0.0, abs=1e-15)


def test_structural_scalar_violated():
    spec = scalar_spec(path_graph(3), 1.0, 2.0, (0,), 0.1)
    spec = replace(spec, k_matrix=np.array([[2.5]]))
    chk = check_structural(spec)
    assert not chk.ok
    assert chk.identity_residual == pytest.approx(1.0, abs=1e-12)


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
    assert check_structural(spec).ok


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
    with pytest.raises(PreconditionError):
        iterative_bound(scalar_spec(path_graph(3), 1.0, 1.0, (1,), 0.0))
    with pytest.raises(PreconditionError):
        iterative_bound(scalar_spec(path_graph(3), 1.0, 0.5, (1,), 0.0))


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


# ---------------------------------------------------------------------------
# kappa threshold


def test_kappa_threshold_k5():
    # complete graph on 5 nodes, one pinned node of degree 4, rhs = 0.5:
    # s = 5, threshold = s (s - rhs) / ((s - rhs) - sigma D) = 5 * 4.5 / 0.5 = 45
    spec = kn_spec(5, 1.0, 1.0, (0,), 0.5)
    assert kappa_threshold(spec) == pytest.approx(45.0, rel=1e-9)


def test_kappa_threshold_empty_pinned():
    spec = scalar_spec(path_graph(3), 1.0, 1.0, (), 0.5)
    assert kappa_threshold(spec) == pytest.approx(1.0)


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
    chk = exact_condition(scalar_spec(path_graph(3), 1.0, 0.0, (), 0.5))
    assert chk.ok
    assert chk.exact_lambda == pytest.approx(1.0)
    # consensus zero mode shows up in the true smallest eigenvalue
    assert abs(chk.exact_lambda_min) <= 1e-9


def test_exact_condition_huge_f_bound():
    assert not exact_condition(scalar_spec(path_graph(3), 1.0, 3.0, (0,), 1e3)).ok


def test_exact_condition_reports_product_form():
    spec = kn_spec(5, 1.0, 45.0, (0,), 0.5)
    chk = exact_condition(spec)
    assert chk.ok
    # product form: 0.5 * lambda_min * lambda_min(QB+B^TQ^T) vs f_bound*||Q||
    assert chk.product_lhs == pytest.approx(chk.exact_lambda_min)
    assert chk.product_rhs == pytest.approx(0.5)


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


def test_spec_validation():
    with pytest.raises(ValidationError):
        scalar_spec(path_graph(3), -1.0, 1.0, (), 0.0)
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
