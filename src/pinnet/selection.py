"""Pinned-node selection: maximize lambda_min>0(sigma L + kappa P) under a budget.

The objective is always evaluated exactly with the dense eigensolver; the
closed-form certificate is a reporting companion, not the search metric.
Exhaustive enumeration is the ground-truth oracle for the combinatorial
problem, greedy and degree ranking are the cheap heuristics.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .criteria import pinned_operator
from .errors import CombinatorialGuardError, ValidationError
from .graphs import Graph, degrees
from .spectral import lambda_min_gt0

EXHAUSTIVE_GUARD = 10**6

GREEDY = "greedy"
DEGREE = "degree"
EXHAUSTIVE = "exhaustive"


@dataclass(frozen=True)
class SelectionResult:
    pinned: tuple[int, ...]
    objective: float
    method: str
    evaluations: int


def evaluate_pinning(g: Graph, sigma: float, kappa: float, pinned) -> float:
    """Exact lambda_min>0(sigma L + kappa P)."""
    return lambda_min_gt0(pinned_operator(g, sigma, kappa, pinned))


def _check_budget(g: Graph, budget: int):
    if not 0 <= budget <= g.num_nodes:
        raise ValidationError(
            f"budget {budget} must be between 0 and {g.num_nodes}"
        )


def greedy_select(g: Graph, sigma: float, kappa: float, budget: int) -> SelectionResult:
    """Grow the pinned set one node at a time, best exact objective first.

    Ties break toward the smallest node index; runs are deterministic.
    Performs sum_{k=0}^{budget-1} (N - k) eigensolves.
    """
    _check_budget(g, budget)
    chosen: list[int] = []
    objective = evaluate_pinning(g, sigma, kappa, ())
    evaluations = 0
    for _ in range(budget):
        best_val = -math.inf
        best_node = -1
        for cand in range(g.num_nodes):
            if cand in chosen:
                continue
            val = evaluate_pinning(g, sigma, kappa, chosen + [cand])
            evaluations += 1
            if val > best_val:
                best_val = val
                best_node = cand
        chosen.append(best_node)
        objective = best_val
    return SelectionResult(tuple(chosen), float(objective), GREEDY, evaluations)


def degree_select(g: Graph, sigma: float, kappa: float, budget: int) -> SelectionResult:
    """Pin the budget highest-degree nodes, ties toward the smallest index."""
    _check_budget(g, budget)
    deg = degrees(g)
    order = sorted(range(g.num_nodes), key=lambda i: (-deg[i], i))
    pinned = tuple(order[:budget])
    objective = evaluate_pinning(g, sigma, kappa, pinned)
    return SelectionResult(pinned, float(objective), DEGREE, 1)


def exhaustive_select(g: Graph, sigma: float, kappa: float, budget: int) -> SelectionResult:
    """True argmax over all budget-subsets; ties toward the lexicographically
    smallest subset. Refuses when C(N, budget) exceeds 10^6."""
    _check_budget(g, budget)
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
