"""Pinned-node selection: maximize lambda_min(sigma L + kappa P) under a budget.

The objective is 0.0 while a component has no pin, and every reported value
is a dense eigensolve; the closed-form certificate is a reporting companion,
not the search metric. Greedy screens its candidates first by the rank-one
secular equation (pinning one more node adds kappa e_i e_i^T), solved in a
few passes of rational interpolation, and solves densely only those that
could win. Exhaustive enumeration is the ground-truth oracle, greedy and
degree ranking are the cheap heuristics.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .criteria import pinned_operator
from .errors import CombinatorialGuardError, ValidationError
from .graphs import Graph, _index, connected_components, degrees
from .spectral import Spectrum, default_rank_tol, eig_sym
from .spectral import lambda_min_gt0  # noqa: F401  (a module attribute the benchmark's tracer rebinds)

EXHAUSTIVE_GUARD = 10**6
# Greedy solves densely every candidate whose secular score is within
# SCREEN_RTOL (lambda_max + kappa) of the best score.
SCREEN_RTOL = 1e-8

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
    """Exact lambda_min(sigma L + kappa P), from the same vector solve as greedy."""
    return _objective(eig_sym(pinned_operator(g, sigma, kappa, pinned)).eigenvalues)


def _objective(w: np.ndarray) -> float:
    """The last of eigenvalues sorted descending, exactly 0.0 within the rank tolerance."""
    return 0.0 if abs(w[-1]) <= default_rank_tol(w[0]) else float(w[-1])


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

    A candidate replaces the incumbent only if its computed objective is
    strictly larger, so ties go to the smallest node index only when the
    computed values are equal; round-off can split an exact tie either way.
    A round whose objectives all read 0.0 pins the smallest node of the
    first component with no pin, else the smallest candidate. Deterministic.

    Each round solves the current operator once (the empty set first, then
    the previous winner's solve is reused) and scores every candidate with
    _secular_scores. A best score below a quarter of the rank tolerance of
    s = lambda_max + kappa (each candidate's lambda_max is at least s / 2)
    makes such a zero round, and only its pick is solved. Otherwise the
    candidates scoring within SCREEN_RTOL s of the best are solved densely,
    in index order. Picks, objectives and evaluations are those of solving
    every candidate densely; ties (complete graphs, cycles) are all solved,
    so a round costs between 1 and N - k dense solves.
    """
    budget = _check_budget(g, budget)
    base = eig_sym(pinned_operator(g, sigma, kappa, ()))
    best_val = _objective(base.eigenvalues)
    chosen: list[int] = []
    evaluations = 0
    for _ in range(budget):
        cands = [i for i in range(g.num_nodes) if i not in chosen]
        evaluations += len(cands)
        scores = _secular_scores(base, kappa, cands)
        scale = base.eigenvalues[0] + kappa
        best_val = 0.0
        if scores.max() > 0.25 * default_rank_tol(scale):
            near = scores >= scores.max() - SCREEN_RTOL * scale
            for cand in itertools.compress(cands, near):
                spectrum = eig_sym(pinned_operator(g, sigma, kappa, chosen + [cand]))
                val = _objective(spectrum.eigenvalues)
                if val > best_val:
                    best_val, best_node, base = val, cand, spectrum
        if best_val == 0.0:
            free = [c for c in connected_components(g) if set(chosen).isdisjoint(c)]
            best_node = free[0][0] if free else cands[0]
            base = eig_sym(pinned_operator(g, sigma, kappa, chosen + [best_node]))
        chosen.append(best_node)
    return SelectionResult(tuple(chosen), best_val, GREEDY, evaluations)


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
