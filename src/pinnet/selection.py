"""Pinned-node selection: maximize lambda_min>0(sigma L + kappa P) under a budget.

Every reported objective is a dense eigensolve; the closed-form certificate
is a reporting companion, not the search metric. Greedy screens its
candidates with the rank-one secular equation first (pinning one more node
adds kappa e_i e_i^T) and solves densely only those that could win.
Exhaustive enumeration is the ground-truth oracle for the combinatorial
problem, greedy and degree ranking are the cheap heuristics.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .criteria import pinned_operator
from .errors import CombinatorialGuardError, ValidationError
from .graphs import Graph, _index, degrees
from .spectral import Spectrum, default_rank_tol, eig_sym, lambda_min_gt0, lambda_min_gt0_sorted

EXHAUSTIVE_GUARD = 10**6
# Greedy solves densely every candidate whose secular score is within
# SCREEN_RTOL (1 + lambda_max + kappa) of the best score.
SCREEN_RTOL = 1e-8
# Bisection halvings: the bracket shrinks below 2^-64 of its width, far under
# the eigensolver's own error of a few ulps of lambda_max.
SECULAR_STEPS = 64

GREEDY = "greedy"
DEGREE = "degree"
EXHAUSTIVE = "exhaustive"


@dataclass(frozen=True)
class SelectionResult:
    """A chosen pin set, its exact objective, and how many candidate sets
    were scored: N - k per greedy round, 1 for degree, C(N, budget) for
    exhaustive. Greedy's initial solve of the empty set is not counted."""

    pinned: tuple[int, ...]
    objective: float
    method: str
    evaluations: int


def evaluate_pinning(g: Graph, sigma: float, kappa: float, pinned) -> float:
    """Exact lambda_min>0(sigma L + kappa P)."""
    return lambda_min_gt0(pinned_operator(g, sigma, kappa, pinned))


def _check_budget(g: Graph, budget: int) -> int:
    budget = _index(budget, "budget")
    if not 0 <= budget <= g.num_nodes:
        raise ValidationError(
            f"budget {budget} must be between 0 and {g.num_nodes}"
        )
    return budget


def _secular_scores(base: Spectrum, kappa: float, nodes) -> np.ndarray:
    """Smallest eigenvalue of M + kappa e_i e_i^T for each i in nodes, from
    the spectrum of M alone.

    With M = V diag(lam) V^T, lam ascending and z = V[i], it is the root in
    [lam_1, min(lam_2, lam_1 + kappa z_1^2)] of the increasing secular
    function 1 + kappa sum_j z_j^2 / (lam_j - mu) (interlacing bounds it by
    lam_2, the Rayleigh quotient of v_1 by lam_1 + kappa z_1^2; a one-node
    graph has no lam_2, so the quotient alone bounds it). Bisection runs on
    all nodes at once; a root past the bracket, where z_1 or z_2 vanishes,
    ends on the bracket's end, which is then the eigenvalue.
    """
    lam = base.eigenvalues[::-1]
    z2 = base.eigenvectors[list(nodes)][:, ::-1] ** 2
    lo = np.full(len(z2), lam[0])
    hi = lam[0] + kappa * z2[:, 0]
    if len(lam) > 1:
        hi = np.minimum(lam[1], hi)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(SECULAR_STEPS):
            mid = 0.5 * (lo + hi)
            below = 1.0 + kappa * (z2 / (lam - mid[:, None])).sum(axis=1) < 0.0
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
    return hi


def greedy_select(g: Graph, sigma: float, kappa: float, budget: int) -> SelectionResult:
    """Grow the pinned set one node at a time, best exact objective first.

    A candidate replaces the incumbent only if its computed objective is
    strictly larger, so ties go to the smallest node index only when the
    computed values are equal; round-off can split an exact tie either way.
    Runs are deterministic.

    Each round solves the current operator once (the empty set first, then
    the previous winner's solve is reused) and scores every candidate with
    _secular_scores. Only candidates within SCREEN_RTOL (1 + lambda_max +
    kappa) of the best score are solved densely, in index order, and the
    reported objective is that dense value. When some score does not clear
    twice the rank tolerance, lambda_min>0 may skip the new smallest
    eigenvalue (an unpinned component, kappa zero or tiny), so every
    candidate is solved densely. Picks, objectives and evaluations are those
    of solving every candidate densely; ties (complete graphs, cycles) are
    all solved, so a round costs between 1 and N - k dense solves.
    """
    budget = _check_budget(g, budget)
    base = eig_sym(pinned_operator(g, sigma, kappa, ()))
    if budget == 0:
        return SelectionResult((), lambda_min_gt0_sorted(base.eigenvalues), GREEDY, 0)
    chosen: list[int] = []
    evaluations = 0
    for _ in range(budget):
        cands = [i for i in range(g.num_nodes) if i not in chosen]
        evaluations += len(cands)
        scores = _secular_scores(base, kappa, cands)
        lam_max = float(base.eigenvalues[0])
        if scores.min() > 2.0 * default_rank_tol(lam_max + kappa):
            cutoff = scores.max() - SCREEN_RTOL * (1.0 + lam_max + kappa)
            cands = [c for c, score in zip(cands, scores) if score >= cutoff]
        best_val = -math.inf
        for cand in cands:
            spectrum = eig_sym(pinned_operator(g, sigma, kappa, chosen + [cand]))
            val = lambda_min_gt0_sorted(spectrum.eigenvalues)
            if val > best_val:
                best_val, best_node, base = val, cand, spectrum
        chosen.append(best_node)
    return SelectionResult(tuple(chosen), float(best_val), GREEDY, evaluations)


def degree_select(g: Graph, sigma: float, kappa: float, budget: int) -> SelectionResult:
    """Pin the budget highest-degree nodes, ties toward the smallest index."""
    budget = _check_budget(g, budget)
    deg = degrees(g)
    order = sorted(range(g.num_nodes), key=lambda i: (-deg[i], i))
    pinned = tuple(order[:budget])
    objective = evaluate_pinning(g, sigma, kappa, pinned)
    return SelectionResult(pinned, float(objective), DEGREE, 1)


def exhaustive_select(g: Graph, sigma: float, kappa: float, budget: int) -> SelectionResult:
    """True argmax over all budget-subsets; ties toward the lexicographically
    smallest subset. Refuses when C(N, budget) exceeds 10^6."""
    budget = _check_budget(g, budget)
    count = math.comb(g.num_nodes, budget)
    if count > EXHAUSTIVE_GUARD:
        raise CombinatorialGuardError(
            f"{count} subsets exceed the exhaustive guard of {EXHAUSTIVE_GUARD}",
            subset_count=count,
        )
    best_val = -math.inf
    best_subset: tuple[int, ...] = ()
    evaluations = 0
    for subset in itertools.combinations(range(g.num_nodes), budget):
        val = evaluate_pinning(g, sigma, kappa, subset)
        evaluations += 1
        if val > best_val:
            best_val = val
            best_subset = subset
    return SelectionResult(best_subset, float(best_val), EXHAUSTIVE, evaluations)
