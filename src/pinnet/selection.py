"""Pinned-node selection: maximize lambda_min(sigma L + kappa P) under a budget.

The objective is 0.0, unsolved, where the structure makes the operator
singular (criteria._zero_modes), else criteria.pinned_lambda_min_gt0, the
bits evaluate and pinnet spectrum report for the same pins. Objectives
within TIE_RTOL (lambda_max + kappa) of the best are tied: twice the largest
gap the tests measure between the secular screen and a dense solve. Greedy
scores its candidates by the rank-one secular equation (pinning one more
node adds kappa e_i e_i^T) on its base's eigenvectors, the one vector solve
here. Exhaustive enumeration is the ground-truth oracle, greedy and degree
ranking are the cheap heuristics.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .criteria import (_check_gains, _check_pins, _unpinned_roots, _zero_modes,
                       pinned_lambda_min_gt0, pinned_operator)
from .errors import CombinatorialGuardError, ValidationError
from .graphs import Graph, _index, component_roots, degrees
from .spectral import Spectrum, eig_sym, eig_values
from .spectral import lambda_min_gt0  # noqa: F401  (benchmark rebinds it)

EXHAUSTIVE_GUARD = 10**6
TIE_RTOL = 64 * np.finfo(float).eps

GREEDY = "greedy"
DEGREE = "degree"
EXHAUSTIVE = "exhaustive"


@dataclass(frozen=True)
class SelectionResult:
    """A chosen pin set, its exact objective (evaluate_pinning of the set),
    and how many candidate sets were scored: N - k per greedy round, 1 for
    degree, C(N, budget) for exhaustive."""

    pinned: tuple[int, ...]
    objective: float
    method: str
    evaluations: int


def evaluate_pinning(g: Graph, sigma: float, kappa: float, pinned) -> float:
    """Exact lambda_min(sigma L + kappa P): 0.0 with no solve where the
    structure makes the operator singular, else pinned_lambda_min_gt0."""
    pinned = _check_pins(pinned, g.num_nodes)  # before the labels read them
    _check_gains(sigma, kappa)
    if _zero_modes(g, kappa, pinned):
        return 0.0
    return pinned_lambda_min_gt0(g, sigma, kappa, pinned)


def _check_budget(g: Graph, budget: int) -> int:
    budget = _index(budget, "budget")
    if not 0 <= budget <= g.num_nodes:
        raise ValidationError(f"budget {budget} must be between 0 and {g.num_nodes}")
    return budget


def _secular_scores(base: Spectrum, kappa: float, nodes) -> np.ndarray:
    """Smallest eigenvalue of M + kappa e_i e_i^T for each i in nodes, from
    the spectrum of M alone.

    With M = V diag(lam) V^T, lam ascending and z = V[i], it is lam_1 + tau,
    tau the root in [0, min(delta, s1)] (delta = lam_2 - lam_1, s1 = kappa
    z_1^2) of the increasing secular function 1 - s1 / tau + psi(tau), psi
    = kappa sum_{j>=2} z_j^2 / (lam_j - lam_1 - tau) (interlacing bounds it
    by lam_2, the Rayleigh quotient of v_1 by lam_1 + s1; a one-node graph
    has no lam_2, so the quotient alone bounds it). Each pass, on all nodes
    at once, keeps the pole at 0 exact, models psi by c + S / (delta - tau)
    with psi's value and slope at tau, and moves tau to the model's smaller
    root clamped to the bracket (Bunch, Nielsen & Sorensen 1978; R.-C. Li,
    LAPACK Working Note 89). The model lies above psi, so tau climbs to the
    root from 0, quadratically: passes stop once no tau moves by more than 4
    ulps of lam_max + kappa, typically after 3 or 4. Where z_1 or z_2
    vanishes, or lam_1 = lam_2, the root ends on the bracket's end, which is
    then the eigenvalue.
    """
    lam = base.eigenvalues[::-1]
    w = kappa * base.eigenvectors[list(nodes)][:, ::-1] ** 2
    s1, w, d = w[:, 0], w[:, 1:], lam[1:] - lam[0]
    delta = d[0] if len(d) else s1  # one node: the model's root is then s1
    hi = np.minimum(delta, s1)
    tol = 4.0 * np.finfo(float).eps * abs(lam[-1] + kappa)
    tau = np.zeros(len(s1))
    with np.errstate(divide="ignore", invalid="ignore"):
        # A root on lam_2's own pole (z_2 = 0, a double eigenvalue) is reached
        # only linearly, but each pass more than halves the distance to it.
        for _ in range(64):
            r = 1.0 / (d - tau[:, None])
            wr = w * r
            psi, slope, gap = wr.sum(axis=1), (wr * r).sum(axis=1), delta - tau
            s, ad = slope * gap**2, (1.0 + psi - slope * gap) * delta
            b = ad + s1 + s  # the discriminant below is b^2 - 4 ad s1
            root = 2.0 * s1 * delta / (b + np.sqrt((ad - s1) ** 2 + s * (b + ad + s1)))
            # NaN (a pole at tau, or 0 / 0) comes only at tau = delta = hi
            root = np.fmax(np.fmin(root, hi), 0.0)
            step = np.abs(root - tau).max()
            tau = root
            if step <= tol:
                break
    return lam[0] + tau


def greedy_select(g: Graph, sigma: float, kappa: float, budget: int) -> SelectionResult:
    """Grow the pinned set one node at a time, best exact objective first.

    While two or more components have no pin, or at kappa = 0, every
    objective is 0.0 by structure: the round pins the smallest node of the
    first component with no pin, else the smallest candidate. Otherwise the
    candidates are the nodes of the one component without a pin, or all
    nodes left, scored by _secular_scores on the current operator, and the
    pick is the smallest whose score is within TIE_RTOL (lambda_max + kappa)
    of the best, lambda_max the current operator's. Only a round that screens
    solves, for the eigenvectors of its base, and the objective is
    evaluate_pinning of the picks. The picks are the same rule's on dense
    solves of every candidate, unless one lies within the screen's error (a
    few ulps of lambda_max + kappa) of the band's edge. Deterministic."""
    budget = _check_budget(g, budget)  # evaluate_pinning checks the gains
    chosen: list[int] = []
    evaluations = 0
    for _ in range(budget):
        cands = [i for i in range(g.num_nodes) if i not in chosen]
        evaluations += len(cands)
        unpinned = _unpinned_roots(component_roots(g), chosen)
        if kappa == 0 or len(unpinned) >= 2:
            pick = int(unpinned[0]) if len(unpinned) else cands[0]
        else:
            if len(unpinned):  # the one component without a pin
                cands = np.flatnonzero(component_roots(g) == unpinned[0]).tolist()
            base = eig_sym(pinned_operator(g, sigma, kappa, chosen))
            scores = _secular_scores(base, kappa, cands)
            band = TIE_RTOL * (base.eigenvalues[0] + kappa)
            pick = cands[int(np.argmax(scores >= scores.max() - band))]
        chosen.append(pick)
    return SelectionResult(tuple(chosen), evaluate_pinning(g, sigma, kappa, chosen), GREEDY,
                           evaluations)


def degree_select(g: Graph, sigma: float, kappa: float, budget: int) -> SelectionResult:
    """Pin the budget highest-degree nodes, ties toward the smallest index."""
    budget = _check_budget(g, budget)
    deg = degrees(g)
    order = sorted(range(g.num_nodes), key=lambda i: (-deg[i], i))
    pinned = tuple(order[:budget])
    return SelectionResult(pinned, evaluate_pinning(g, sigma, kappa, pinned), DEGREE, 1)


def exhaustive_select(g: Graph, sigma: float, kappa: float, budget: int) -> SelectionResult:
    """True argmax over all budget-subsets: the lexicographically smallest
    subset whose objective is within TIE_RTOL (lambda_max + kappa) of the
    best, lambda_max the largest of the operators solved (no subset the
    structure fixes at 0.0 is). Refuses when C(N, budget) exceeds 10^6."""
    budget = _check_budget(g, budget)
    _check_gains(sigma, kappa)
    count = math.comb(g.num_nodes, budget)
    if count > EXHAUSTIVE_GUARD:
        msg = f"{count} subsets exceed the exhaustive guard of {EXHAUSTIVE_GUARD}"
        raise CombinatorialGuardError(msg, subset_count=count)
    vals, top = np.zeros(count), 0.0
    for k, subset in enumerate(itertools.combinations(range(g.num_nodes), budget)):
        if not _zero_modes(g, kappa, subset):
            w = eig_values(pinned_operator(g, sigma, kappa, subset))
            vals[k], top = pinned_lambda_min_gt0(g, sigma, kappa, subset, w), max(top, w[0])
    best = int(np.argmax(vals >= vals.max() - TIE_RTOL * (top + kappa)))
    subset = next(itertools.islice(itertools.combinations(range(g.num_nodes), budget), best, None))
    return SelectionResult(subset, float(vals[best]), EXHAUSTIVE, count)
