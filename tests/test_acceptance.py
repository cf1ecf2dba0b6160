"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All expected values come from independent oracles (dense eigensolves on
materialized matrices, matrix exponentials, exhaustive enumeration); seeds
are fixed so every run exercises the same cases.
"""

import math
import time

import numpy as np
import pytest
import scipy.linalg

import pinnet as pn
from pinnet.bounds import _numerical_rank, lili_term

from helpers import random_connected_graph, scalar_spec


def _report(name, ok, detail=""):
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# 1. bound-soundness sweep


def test_acceptance_1_bound_soundness_sweep():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    checked = 0
    violations = 0
    worst = math.inf
    for trial in range(200):
        n = int(rng.integers(5, 41))
        p = (0.2, 0.5)[trial % 2]
        g = random_connected_graph(rng, n, p)
        sigma = (0.5, 1.0, 2.0)[trial % 3]
        s = sigma * pn.pinned_lambda_min_gt0(g, 1.0, 0.0, ())
        size = int(rng.integers(0, 6))
        pinned = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
        for kappa in np.linspace(1.001 * s, 20.0 * s, 10):
            spec = scalar_spec(g, sigma, float(kappa), pinned, 0.0)
            bound = pn.iterative_bound(spec)
            exact = pn.pinned_lambda_min_gt0(g, sigma, float(kappa), pinned)
            checked += 1
            worst = min(worst, exact - bound)
            if bound > exact + 1e-8:
                violations += 1
    elapsed = time.perf_counter() - start
    _report(
        "1 bound-soundness sweep",
        violations == 0,
        f"({checked} cases, worst slack {worst:.2e}, {elapsed:.1f}s)",
    )


# ---------------------------------------------------------------------------
# 2. appendix sandwich


def test_acceptance_2_arrow_bound_sandwich():
    rng = np.random.default_rng(2002)
    start = time.perf_counter()
    failures = 0
    sandwich_cases = 0
    psd_cases = 0
    for _ in range(250):
        d = int(rng.integers(1, 31))
        m = rng.standard_normal((d, d))
        arr = pn.ArrowMatrix(
            float(rng.standard_normal()), rng.standard_normal(d), pn.SymMatrix((m + m.T) / 2)
        )
        lo = pn.lili_lower_max(arr)
        hi = pn.lili_upper_max(arr)
        tol = 1e-8 * (1.0 + abs(lo.exact_value))
        sandwich_cases += 1
        if lo.slack < -tol or hi.slack < -tol:
            failures += 1
    for _ in range(250):
        n = int(rng.integers(2, 31))
        rows = int(rng.integers(1, n + 4))
        arr = pn.assemble_arrow(rng.standard_normal(rows), rng.standard_normal((rows, n)))
        lili = pn.smallest_nonzero_lower(arr)
        wy = pn.weyl_lower(arr)
        tol = 1e-8 * (1.0 + abs(lili.exact_value))
        psd_cases += 1
        ok = (
            wy.bound_value <= lili.bound_value + tol
            and lili.bound_value <= lili.exact_value + tol
            and wy.bound_value <= wy.exact_value + tol
        )
        w = pn.eig_values(arr.m)
        lam_r = w[_numerical_rank(w) - 1]
        eta = abs(arr.c - lam_r)
        try:
            ma = pn.mathias_lower(arr)
            ok = ok and ma.bound_value <= lili.bound_value + tol
            ok = ok and ma.bound_value <= ma.exact_value + tol
            # Weyl is dominated by Mathias exactly when the gap reaches ||a||
            if eta >= float(np.linalg.norm(arr.a)):
                ok = ok and wy.bound_value <= ma.bound_value + tol
        except pn.DegenerateGapError:
            pass
        if not ok:
            failures += 1
    elapsed = time.perf_counter() - start
    _report(
        "2 appendix sandwich",
        failures == 0,
        f"({sandwich_cases} sandwich + {psd_cases} PSD chains, {elapsed:.1f}s)",
    )


# ---------------------------------------------------------------------------
# 3. theorem-threshold round trip


def test_acceptance_3_threshold_round_trip():
    rng = np.random.default_rng(3003)
    start = time.perf_counter()
    failures = 0
    cases = 0
    while cases < 100:
        if cases % 10 == 9:
            # degenerate family: empty pinned set. The consensus mode stays
            # undamped, so no threshold exists, and the gain
            # sigma*lambda_min>0(L) that once stood for one certifies nothing
            g = random_connected_graph(rng, int(rng.integers(5, 21)), 0.5)
            sigma = float(rng.choice([0.5, 1.0, 2.0]))
            s = sigma * pn.pinned_lambda_min_gt0(g, 1.0, 0.0, ())
            fb = float(rng.uniform(0.05, 0.9)) * s
            pinned = ()
        else:
            # certifiable family: the closed-form threshold exists only when
            # the pinned degree sum stays below the algebraic connectivity,
            # which for simple unweighted graphs means complete graphs with
            # a single pinned node
            n = int(rng.integers(3, 31))
            g = pn.complete_graph(n)
            sigma = float(rng.choice([0.5, 1.0, 2.0]))
            fb = float(rng.uniform(0.05, 0.95)) * sigma
            pinned = (int(rng.integers(0, n)),)
        probe = scalar_spec(g, sigma, 1.0, pinned, fb)
        if not pn.rhs_threshold(probe) < pn.sigma_lambda_min_gt0(probe):
            continue
        if not pinned:
            cases += 1
            with pytest.raises(pn.ThresholdUndefinedError):
                pn.kappa_threshold(probe)
            rep = pn.evaluate(scalar_spec(g, sigma, s, pinned, fb))
            if rep.verdict_theorem or rep.verdict_exact or "unpinned_component" not in rep.reasons:
                failures += 1
            continue
        kthr = pn.kappa_threshold(probe)
        spec = scalar_spec(g, sigma, kthr, pinned, fb)
        rep = pn.evaluate(spec)
        cases += 1
        ok = (
            rep.iterative_bound is not None
            and rep.rhs_threshold is not None
            and rep.iterative_bound >= rep.rhs_threshold - 1e-9
            and rep.verdict_theorem
            and rep.verdict_exact
        )
        if not ok:
            failures += 1
    elapsed = time.perf_counter() - start
    _report("3 theorem-threshold round trip", failures == 0, f"({cases} configs, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 4. simulation vs criterion


def _draw_certified_sim_config(rng):
    """Random ScalarSaturated config with verdict_theorem true and a decay
    margin strong enough for the stated horizon; resamples deterministically."""
    while True:
        n = int(rng.integers(3, 7))
        sigma = float(rng.choice([0.5, 1.0, 2.0]))
        g = pn.complete_graph(n)
        s = sigma * float(n)
        fb = float(rng.uniform(0.02, 0.12)) * sigma
        theta = float(rng.uniform(0.2, 0.8))
        a = theta * fb * float(rng.choice([-1.0, 1.0]))
        b = (fb - abs(a)) * float(rng.choice([-1.0, 1.0]))
        dyn = pn.ScalarSaturatedDynamics(a, b)
        node = int(rng.integers(0, n))
        kappa = float(rng.uniform(20.0, 60.0)) * s
        spec = scalar_spec(g, sigma, kappa, (node,), dyn.f_bound)
        rep = pn.evaluate(spec)
        if not rep.verdict_theorem:
            continue
        horizon = 50.0 / (s - rep.rhs_threshold)
        mu = rep.exact_lambda
        if (mu - dyn.f_bound) * horizon < 7.2:
            continue
        x0 = rng.uniform(-1.0, 1.0, size=(n, 1))
        s0 = rng.uniform(-1.0, 1.0, size=1)
        # whole steps only: the run ends on the dt grid point nearest the horizon
        config = pn.SimConfig(spec, dyn, x0, s0, 0.0, round(horizon / 1e-3) * 1e-3, 1e-3)
        return config, rep


def test_acceptance_4_simulation_vs_criterion():
    rng = np.random.default_rng(4004)
    start = time.perf_counter()
    false_negatives = 0
    for _ in range(50):
        config, rep = _draw_certified_sim_config(rng)
        assert rep.verdict_theorem
        traj = pn.simulate(config)
        e0 = np.linalg.norm(traj.errors[0])
        eT = np.linalg.norm(traj.errors[-1])
        if not (pn.check_decay(traj).ok and eT <= 1e-3 * e0):
            false_negatives += 1
    elapsed = time.perf_counter() - start
    _report(
        "4 simulation vs criterion",
        false_negatives == 0,
        f"(50 certified configs, zero false negatives required, {elapsed:.1f}s)",
    )


# ---------------------------------------------------------------------------
# 5. linear oracle


def test_acceptance_5_linear_oracle():
    a, sigma, k, t_end = 0.3, 1.0, 3.0, 5.0
    g = pn.path_graph(3)
    spec = scalar_spec(g, sigma, k, (0,), a)
    x0 = np.array([[0.9], [-0.2], [0.1]])
    s0 = np.array([0.4])
    m = a * np.eye(3) - sigma * pn.laplacian(g).array - k * np.diag([1.0, 0.0, 0.0])
    exact = scipy.linalg.expm(t_end * m) @ (s0[None, :] - x0)[:, 0]

    traj = pn.simulate(pn.SimConfig(spec, pn.LinearDynamics([[a]]), x0, s0, 0.0, t_end, 1e-3))
    rel = np.linalg.norm(traj.errors[-1, :, 0] - exact) / np.linalg.norm(exact)

    errs = {}
    for dt in (2e-2, 1e-2):
        t = pn.simulate(pn.SimConfig(spec, pn.LinearDynamics([[a]]), x0, s0, 0.0, t_end, dt))
        errs[dt] = np.linalg.norm(t.errors[-1, :, 0] - exact)
    ratio = errs[2e-2] / errs[1e-2]
    ok = rel <= 1e-5 and 8.0 <= ratio <= 32.0
    _report("5 linear oracle", ok, f"(rel err {rel:.2e}, halving ratio {ratio:.1f})")


# ---------------------------------------------------------------------------
# 6. incidence identity


def test_acceptance_6_incidence_identity():
    rng = np.random.default_rng(6006)
    bad = 0
    for trial in range(100):
        n = int(rng.integers(1, 51))
        p = (0.1, 0.3, 0.6)[trial % 3]
        g = pn.erdos_renyi(n, p, seed=int(rng.integers(0, 2**31)))
        inc = pn.incidence(g).entries
        if not np.array_equal(inc @ inc.T, pn.laplacian(g).array.astype(np.int64)):
            bad += 1
    _report("6 incidence identity", bad == 0, "(100 random graphs, exact integer equality)")


# ---------------------------------------------------------------------------
# 7. selection oracle


def test_acceptance_7_selection_oracle():
    rng = np.random.default_rng(7007)
    start = time.perf_counter()
    graphs = [
        pn.path_graph(5), pn.path_graph(9), pn.path_graph(12),
        pn.cycle_graph(6), pn.cycle_graph(10),
        pn.star_graph(7), pn.star_graph(12),
        pn.complete_graph(5), pn.complete_graph(8),
    ]
    graphs += [random_connected_graph(rng, n, 0.4) for n in (8, 10, 12)]
    failures = 0
    for g in graphs:
        greedy_objs = []
        best_objs = []
        for budget in (1, 2, 3):
            greedy = pn.greedy_select(g, 1.0, 5.0, budget)
            best = pn.exhaustive_select(g, 1.0, 5.0, budget)
            if greedy.objective > best.objective + 1e-10:
                failures += 1
            greedy_objs.append(greedy.objective)
            best_objs.append(best.objective)
        for objs in (greedy_objs, best_objs):
            if not all(b >= a - 1e-10 for a, b in zip(objs, objs[1:])):
                failures += 1
    elapsed = time.perf_counter() - start
    _report(
        "7 selection oracle",
        failures == 0,
        f"({len(graphs)} graphs, budgets 1..3, {elapsed:.1f}s)",
    )
