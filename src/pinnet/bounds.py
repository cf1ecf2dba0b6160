"""Extreme-eigenvalue bounds for bordered (arrow) symmetric matrices.

An arrow matrix is [[c, a^T], [a, M]] with M symmetric of dimension d. It is
the Gram matrix of a rectangular factor after appending one column, so these
bounds control how extreme eigenvalues move under a column append. Three
families are implemented:

  - Li-Li two-sided estimates of lambda_1 (sharp in the border norm and gap),
  - a Li-Li-type lower bound on lambda_{r+1} for PSD M of rank r,
  - the simpler Weyl and Mathias corollary lower bounds.

Every bound also reports the exact value from a dense eigensolve and the
slack, so tightness can be tabulated.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGapError, NoNonzeroEigenvalueError, NotPSDError, ValidationError
from .spectral import SymMatrix, eig_sym, eig_values

GAP_RTOL = 1e-12
RANK_RTOL = 1e-9


class BoundKind(enum.Enum):
    LILI_UPPER_MAX = "LiLiUpperMax"
    LILI_LOWER_MAX = "LiLiLowerMax"
    SMALLEST_NONZERO_LOWER = "SmallestNonzeroLower"
    WEYL_LOWER = "WeylLower"
    MATHIAS_LOWER = "MathiasLower"


_UPPER_KINDS = {BoundKind.LILI_UPPER_MAX}


@dataclass(frozen=True)
class BoundReport:
    """A bound next to the exact eigenvalue it controls.

    Slack is exact - bound for lower bounds and bound - exact for upper
    bounds, so a valid bound always has slack >= 0 up to round-off.
    """

    bound_kind: BoundKind
    bound_value: float
    exact_value: float

    @property
    def slack(self) -> float:
        if self.bound_kind in _UPPER_KINDS:
            return self.bound_value - self.exact_value
        return self.exact_value - self.bound_value


@dataclass(frozen=True)
class ArrowMatrix:
    """Bordered symmetric matrix [[c, a^T], [a, M]]."""

    c: float
    a: np.ndarray
    m: SymMatrix

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float).reshape(-1)
        if a.shape[0] != self.m.dim:
            raise ValidationError(
                f"border length {a.shape[0]} does not match block dimension {self.m.dim}"
            )
        a.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "c", float(self.c))

    def materialize(self) -> SymMatrix:
        d = self.m.dim
        full = np.empty((d + 1, d + 1))
        full[0, 0] = self.c
        full[0, 1:] = self.a
        full[1:, 0] = self.a
        full[1:, 1:] = self.m.array
        return SymMatrix(full)


def assemble_arrow(x, big_x) -> ArrowMatrix:
    """Gram arrow of the factor [x, X]: c = <x,x>, a = X^T x, M = X^T X.

    Its nonzero eigenvalues coincide with those of x x^T + X X^T.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    big_x = np.atleast_2d(np.asarray(big_x, dtype=float))
    if big_x.shape[0] != x.shape[0]:
        raise ValidationError(
            f"x has {x.shape[0]} rows but X has {big_x.shape[0]}"
        )
    return ArrowMatrix(float(x @ x), big_x.T @ x, SymMatrix(big_x.T @ big_x))


def lili_term(gap: float, weight_sq: float) -> float:
    """2 w^2 / (eta + sqrt(eta^2 + 4 w^2)), zero at w = 0; by hypot, so no square overflows."""
    if weight_sq <= 0.0:
        return 0.0
    return weight_sq / (0.5 * gap + math.hypot(0.5 * gap, math.sqrt(weight_sq)))


def lili_upper_max(arr: ArrowMatrix) -> BoundReport:
    """Upper bound on lambda_1: max(c, lambda_1(M)) plus the Li-Li term in ||a||."""
    lam1 = eig_values(arr.m)[0]
    eta1 = abs(arr.c - lam1)
    bound = max(arr.c, lam1) + lili_term(eta1, float(arr.a @ arr.a))
    exact = eig_values(arr.materialize())[0]
    return BoundReport(BoundKind.LILI_UPPER_MAX, float(bound), float(exact))


def lili_lower_max(arr: ArrowMatrix) -> BoundReport:
    """Lower bound on lambda_1 using the border's overlap with M's top eigenvector."""
    spec = eig_sym(arr.m)
    lam1 = spec.eigenvalues[0]
    eta1 = abs(arr.c - lam1)
    overlap_sq = float(arr.a @ spec.eigenvectors[:, 0]) ** 2
    bound = max(arr.c, lam1) + lili_term(eta1, overlap_sq)
    exact = eig_values(arr.materialize())[0]
    return BoundReport(BoundKind.LILI_LOWER_MAX, float(bound), float(exact))


def arrow_lower(kind: BoundKind, c: float, lam_r: float, a_sq: float) -> float:
    """Lower bound on lambda_{r+1}: min(c, lambda_r(M)) minus the border term of kind.

    kind is SMALLEST_NONZERO_LOWER, WEYL_LOWER or MATHIAS_LOWER. From ||a||^2
    and eta = |c - lambda_r| the terms are the Li-Li term, ||a|| and
    ||a||^2 / eta (DegenerateGapError when eta <= 1e-12 max(|c|, |lambda_r|)).
    """
    eta = abs(c - lam_r)
    if kind is BoundKind.SMALLEST_NONZERO_LOWER:
        term = lili_term(eta, a_sq)
    elif kind is BoundKind.WEYL_LOWER:
        term = np.sqrt(a_sq)
    else:
        if eta <= GAP_RTOL * max(abs(c), abs(lam_r)):
            raise DegenerateGapError(
                f"gap |c - lambda_r| = {eta:.3e} is degenerate; the bound is vacuous"
            )
        term = a_sq / eta
    return min(c, lam_r) - term


def _numerical_rank(w: np.ndarray) -> int:
    """Rank r >= 1 of a PSD block from its eigenvalues sorted descending: the
    count above RANK_RTOL |lambda_max|, the one rank found by tolerance, as an
    arrow block has no graph. Raises NotPSDError below minus the cutoff and
    NoNonzeroEigenvalueError if every eigenvalue is within it."""
    rank_tol = RANK_RTOL * abs(w[0])
    if w[-1] < -rank_tol:
        raise NotPSDError(f"matrix is not PSD within tolerance: "
                          f"lambda_min = {w[-1]:.3e} < -{rank_tol:.3e}")
    r = int((w > rank_tol).sum())
    if r == 0:
        raise NoNonzeroEigenvalueError(f"no eigenvalue above rank tolerance {rank_tol:.3e}")
    return r


def _lower_report(kind: BoundKind, arr: ArrowMatrix) -> BoundReport:
    w = eig_values(arr.m)
    r = _numerical_rank(w)
    bound = arrow_lower(kind, arr.c, w[r - 1], float(arr.a @ arr.a))
    exact = eig_values(arr.materialize())[r]
    return BoundReport(kind, float(bound), float(exact))


def smallest_nonzero_lower(arr: ArrowMatrix) -> BoundReport:
    """Lower bound on lambda_{r+1} of the arrow, M PSD of numerical rank r.

    bound = min(c, lambda_r(M)) - 2||a||^2 / (eta_r + sqrt(eta_r^2 + 4||a||^2)),
    exact value is lambda_{r+1} of the materialized matrix.
    """
    return _lower_report(BoundKind.SMALLEST_NONZERO_LOWER, arr)


def weyl_lower(arr: ArrowMatrix) -> BoundReport:
    """Weyl-type corollary: min(c, lambda_r(M)) - ||a||."""
    return _lower_report(BoundKind.WEYL_LOWER, arr)


def mathias_lower(arr: ArrowMatrix) -> BoundReport:
    """Mathias-type corollary: min(c, lambda_r(M)) - ||a||^2 / |c - lambda_r(M)|.

    Raises DegenerateGapError when |c - lambda_r| <= 1e-12 max(|c|, |lambda_r|);
    the quotient is vacuous there and callers should fall back to the Weyl or
    Li-Li bound.
    """
    return _lower_report(BoundKind.MATHIAS_LOWER, arr)
