"""Sufficient-controllability criteria for pinned coupled-oscillator networks.

A pinned system couples N identical n-dimensional oscillators through a graph
Laplacian L with strength sigma, and injects feedback u_i = p_i K (s - x_i)
at the pinned nodes. Controllability (Lyapunov decay of the error system) is
certified through the smallest nonzero eigenvalue of sigma L + kappa P:

  - exact route: compare lambda_min>0(sigma L + kappa P) against the
    threshold 2 f_bound ||Q|| / lambda_min(QB + B^T Q^T) from the quadratic
    Lyapunov argument;
  - certificate route: lower-bound that eigenvalue in closed form from the
    graph data alone, and invert the bound for the smallest feedback
    multiplier kappa that makes the certificate succeed.

The closed-form bound treats each pinned node as one appended column
sqrt(kappa) e_i against the scaled incidence factor sqrt(sigma) I of the
Laplacian, so the border weight of node i is sigma*kappa*deg_i, and applies
the bordered-matrix lower bound with the uniform gap |kappa - sigma
lambda_min>0(L)|:

  bound = min(kappa, s) - sum_i 2 w_i / (eta + sqrt(eta^2 + 4 w_i)),
  s = sigma lambda_min>0(L), w_i = sigma kappa deg_i, eta = |kappa - s|.

This is sound for every graph and pinned set: the smallest nonzero
eigenvalue after pinning a whole set dominates the single-pin value for any
one of its nodes (adding a pin to a component that already has one never
decreases it), the single-pin value obeys the bordered-matrix theorem, and
the sum only subtracts more. The bound saturates at sigma*(lambda_min>0(L) -
sum deg_i) as kappa grows, so a positive certificate needs the pinned degree
sum to stay below the algebraic connectivity; kappa_threshold reports when
that fails.

Each spectral quantity is computed once per spec: sigma lambda_min>0(L),
lambda_min(QB + B^T Q^T) and ||Q|| are memoised on it at first read (a failure
raises again on the next read), and exact_condition solves the operator once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .bounds import lili_term
from .errors import PinnetError, PreconditionError, ThresholdUndefinedError, ValidationError
from .graphs import Graph, connected_components, degrees, is_connected, laplacian
from .spectral import (
    SymMatrix,
    as_sym_matrix,
    eig_sym,
    lambda_min,
    lambda_min_gt0,
    lambda_min_gt0_sorted,
    spectral_norm,
)

EXACT_MARGIN = 1e-12
QB_DEGENERATE_TOL = 1e-12
Q_PD_RTOL = 1e-10


def _check_gains(sigma: float, kappa: float) -> None:
    """The gain rule: sigma > 0 and kappa >= 0, both finite."""
    if sigma <= 0:
        raise ValidationError(f"sigma must be positive, got {sigma}")
    if kappa < 0:
        raise ValidationError(f"kappa must be non-negative, got {kappa}")
    for name, value in (("sigma", sigma), ("kappa", kappa)):
        if not math.isfinite(value):
            raise ValidationError(f"{name} must be finite, got {value}")


def _check_pins(pinned, num_nodes: int) -> tuple[int, ...]:
    """The pin rule: distinct node indices in range(num_nodes)."""
    pinned = tuple(int(i) for i in pinned)
    if len(set(pinned)) != len(pinned):
        raise ValidationError(f"pinned indices must be distinct: {pinned}")
    for i in pinned:
        if not 0 <= i < num_nodes:
            raise ValidationError(f"pinned index {i} out of range for {num_nodes} nodes")
    return pinned


@dataclass(frozen=True)
class PinnedSystemSpec:
    """Inputs of the controllability criteria.

    Q is user-supplied and verified, never synthesized; f_bound is the
    caller's bound on the mean-value coupling matrix of the node dynamics
    (dynamics_sim supplies closed forms for the shipped families).
    """

    graph: Graph
    sigma: float
    kappa: float
    b_matrix: np.ndarray
    k_matrix: np.ndarray
    q_matrix: SymMatrix
    pinned: tuple[int, ...]
    f_bound: float

    def __post_init__(self):
        _check_gains(self.sigma, self.kappa)
        if self.f_bound < 0:
            raise ValidationError(f"f_bound must be non-negative, got {self.f_bound}")
        if not math.isfinite(self.f_bound):
            raise ValidationError(f"f_bound must be finite, got {self.f_bound}")
        q = as_sym_matrix(self.q_matrix)
        object.__setattr__(self, "q_matrix", q)
        n = q.dim
        b = np.asarray(self.b_matrix, dtype=float)
        k = np.asarray(self.k_matrix, dtype=float)
        if b.shape != (n, n) or k.shape != (n, n):
            raise ValidationError(
                f"B {b.shape} and K {k.shape} must both be {n}x{n} to match Q"
            )
        b.setflags(write=False)
        k.setflags(write=False)
        object.__setattr__(self, "b_matrix", b)
        object.__setattr__(self, "k_matrix", k)
        w = eig_sym(q).eigenvalues
        if w[-1] <= Q_PD_RTOL * max(w[0], 0.0):
            raise ValidationError(
                f"Q must be positive definite: lambda_min = {w[-1]:.3e}"
            )
        object.__setattr__(self, "pinned", _check_pins(self.pinned, self.graph.num_nodes))

    @property
    def state_dim(self) -> int:
        return self.q_matrix.dim

    @cached_property
    def _sigma_lambda(self) -> float:
        return self.sigma * lambda_min_gt0(laplacian(self.graph))

    @cached_property
    def _qb_lambda_min(self) -> float:
        qb = self.q_matrix.array @ self.b_matrix
        return lambda_min(SymMatrix(qb + qb.T))

    @cached_property
    def _q_norm(self) -> float:
        return spectral_norm(self.q_matrix.array)


@dataclass
class StructuralCheck:
    """Residuals of the Q/K/kappa/B identities."""

    ok: bool
    identity_residual: float
    qb_lambda_min: float

    def __bool__(self) -> bool:
        return self.ok


@dataclass
class ExactCheck:
    """Exact spectral verdict plus the product-form comparison."""

    ok: bool
    exact_lambda: float
    exact_lambda_min: float
    rhs: float
    product_lhs: float
    product_rhs: float

    def __bool__(self) -> bool:
        return self.ok


@dataclass
class CriterionReport:
    """Everything evaluate() computes; None fields carry a reason in `reasons`."""

    structural_ok: bool
    identity_residual: float
    qb_lambda_min: float
    connected: bool
    sigma_lambda: float | None
    rhs_threshold: float | None
    f_condition_ok: bool | None
    iterative_bound: float | None
    kappa_threshold: float | None
    exact_lambda: float | None
    exact_lambda_min: float | None
    proposition_lhs: float | None
    proposition_rhs: float | None
    verdict_theorem: bool
    verdict_exact: bool
    flags: tuple[str, ...] = ()
    reasons: dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = dict(self.__dict__)
        out["flags"] = list(self.flags)
        return out


def pinned_operator(g: Graph, sigma: float, kappa: float, pinned) -> SymMatrix:
    """sigma L + kappa P as a dense symmetric matrix, P the 0/1 pinned diagonal."""
    _check_gains(sigma, kappa)
    p = np.zeros(g.num_nodes)
    p[list(_check_pins(pinned, g.num_nodes))] = 1.0
    arr = sigma * laplacian(g).array
    arr[np.diag_indices(g.num_nodes)] += kappa * p
    return SymMatrix(arr)


def check_structural(spec: PinnedSystemSpec, tol: float = 1e-9) -> StructuralCheck:
    """Verify QK + K^T Q^T = kappa (QB + B^T Q^T) and QB + B^T Q^T >= 0."""
    q = spec.q_matrix.array
    qk = q @ spec.k_matrix
    qb = q @ spec.b_matrix
    residual = spectral_norm(qk + qk.T - spec.kappa * (qb + qb.T))
    identity_ok = residual <= tol * (1.0 + spectral_norm(qk))
    lam = spec._qb_lambda_min
    return StructuralCheck(bool(identity_ok and lam >= -tol), float(residual), float(lam))


def rhs_threshold(spec: PinnedSystemSpec) -> float:
    """Decay threshold 2 f_bound ||Q|| / lambda_min(QB + B^T Q^T)."""
    lam = spec._qb_lambda_min
    if lam <= QB_DEGENERATE_TOL:
        raise PreconditionError(
            f"lambda_min(QB + B^T Q^T) = {lam:.3e} is not strictly positive; "
            "the threshold quotient is degenerate"
        )
    return 2.0 * spec.f_bound * spec._q_norm / lam


def sigma_lambda_min_gt0(spec: PinnedSystemSpec) -> float:
    """sigma times the smallest nonzero Laplacian eigenvalue."""
    return spec._sigma_lambda


def certificate_bound(s: float, sigma: float, kappa: float, pinned_degrees) -> float:
    """s - sum_i lili_term(kappa - s, sigma kappa deg_i); kappa > s unless no pins."""
    if len(pinned_degrees) == 0:
        return s
    if kappa <= s:
        raise PreconditionError(
            f"kappa = {kappa:.6g} must exceed sigma*lambda_min>0(L) = {s:.6g}"
        )
    eta = kappa - s
    return s - sum(lili_term(eta, sigma * kappa * float(d)) for d in pinned_degrees)


def iterative_bound(spec: PinnedSystemSpec) -> float:
    """Closed-form lower bound on lambda_min>0(sigma L + kappa P).

    One bordered-matrix term per pinned node with border weight
    sigma*kappa*deg_i and the uniform gap |kappa - sigma lambda_min>0(L)|;
    see the module docstring for the soundness argument. An empty pinned set
    returns sigma lambda_min>0(L) exactly. Requires kappa strictly above
    sigma lambda_min>0(L) otherwise (the certificate regime).
    """
    deg = degrees(spec.graph)[list(spec.pinned)]
    return certificate_bound(sigma_lambda_min_gt0(spec), spec.sigma, spec.kappa, deg)


def kappa_threshold(spec: PinnedSystemSpec) -> float:
    """Smallest kappa whose certificate clears rhs_threshold.

    Inverts the monotone quotient-form chain bound: with s = sigma
    lambda_min>0(L), m = s - rhs_threshold and D = sum of pinned degrees,

      kappa_threshold = s * m / (m - sigma D),  defined iff m > sigma D.

    Any kappa >= kappa_threshold gives iterative_bound >= rhs_threshold and
    hence a true exact verdict. Raises ThresholdUndefinedError when the
    decay condition fails (m <= 0) or the certificate saturates below the
    threshold (m <= sigma D, which happens whenever the pinned degree sum
    reaches the algebraic connectivity).
    """
    rhs = rhs_threshold(spec)
    s = sigma_lambda_min_gt0(spec)
    margin = s - rhs
    if margin <= 0:
        inequality = f"rhs_threshold {rhs:.6g} >= sigma*lambda_min>0(L) {s:.6g}"
        raise ThresholdUndefinedError(
            f"decay condition fails, no kappa can certify controllability: {inequality}",
            inequality,
        )
    deg_sum = float(degrees(spec.graph)[list(spec.pinned)].sum()) if spec.pinned else 0.0
    if deg_sum == 0.0:
        return s
    if margin <= spec.sigma * deg_sum:
        inequality = (
            f"sigma*lambda_min>0(L) - rhs_threshold {margin:.6g} <= "
            f"sigma * pinned degree sum {spec.sigma * deg_sum:.6g}"
        )
        raise ThresholdUndefinedError(
            f"certificate saturates below the threshold, no kappa suffices: {inequality}",
            inequality,
        )
    return s * margin / (margin - spec.sigma * deg_sum)


def exact_condition(spec: PinnedSystemSpec) -> ExactCheck:
    """Exact spectral verdict: lambda_min>0(sigma L + kappa P) >= rhs_threshold.

    Also reports the product-form comparison
    (1/2) lambda_min(sigma L + kappa P) lambda_min(QB + B^T Q^T)  vs
    f_bound ||Q||, which matches the quotient form whenever the pinned
    operator is positive definite.
    """
    rhs = rhs_threshold(spec)
    op = pinned_operator(spec.graph, spec.sigma, spec.kappa, spec.pinned)
    w = eig_sym(op).eigenvalues
    lam_gt0 = lambda_min_gt0_sorted(w)
    ok = lam_gt0 >= rhs - EXACT_MARGIN * (1.0 + abs(rhs))
    return ExactCheck(
        ok=bool(ok),
        exact_lambda=float(lam_gt0),
        exact_lambda_min=float(w[-1]),
        rhs=float(rhs),
        product_lhs=float(0.5 * w[-1] * spec._qb_lambda_min),
        product_rhs=float(spec.f_bound * spec._q_norm),
    )


def evaluate(spec: PinnedSystemSpec, tol: float = 1e-9) -> CriterionReport:
    """Full criterion report; individual failures become reasons, not aborts.

    verdict_theorem: structural identities hold, the decay condition holds,
    and kappa reaches kappa_threshold. verdict_exact: structural identities
    hold and the exact spectral comparison clears the threshold. The first
    implies the second by construction of the bound chain.
    """
    structural = check_structural(spec, tol=tol)
    reasons: dict[str, str] = {}
    flags: list[str] = []

    connected = is_connected(spec.graph)
    if not connected:
        flags.append("disconnected")
    if not spec.pinned:
        flags.append("no_pinned_nodes")
    else:
        pinned_set = set(spec.pinned)
        if any(not pinned_set.intersection(c) for c in connected_components(spec.graph)):
            flags.append("unpinned_component")

    def attempt(name: str, fn):
        try:
            return fn()
        except PinnetError as exc:
            reasons[name] = str(exc)
            return None

    s = attempt("sigma_lambda", lambda: sigma_lambda_min_gt0(spec))
    rhs = attempt("rhs_threshold", lambda: rhs_threshold(spec))
    f_ok = (rhs < s) if (rhs is not None and s is not None) else None
    if f_ok is None:
        reasons.setdefault("f_condition", "undefined: see rhs_threshold / sigma_lambda")
    bound = attempt("iterative_bound", lambda: iterative_bound(spec))
    kthr = attempt("kappa_threshold", lambda: kappa_threshold(spec))
    exact = attempt("exact_lambda", lambda: exact_condition(spec))

    verdict_theorem = bool(
        structural.ok and f_ok is True and kthr is not None and spec.kappa >= kthr
    )
    verdict_exact = bool(structural.ok and exact is not None and exact.ok)

    return CriterionReport(
        structural_ok=structural.ok,
        identity_residual=structural.identity_residual,
        qb_lambda_min=structural.qb_lambda_min,
        connected=connected,
        sigma_lambda=s,
        rhs_threshold=rhs,
        f_condition_ok=f_ok,
        iterative_bound=bound,
        kappa_threshold=kthr,
        exact_lambda=None if exact is None else exact.exact_lambda,
        exact_lambda_min=None if exact is None else exact.exact_lambda_min,
        proposition_lhs=None if exact is None else exact.product_lhs,
        proposition_rhs=None if exact is None else exact.product_rhs,
        verdict_theorem=verdict_theorem,
        verdict_exact=verdict_exact,
        flags=tuple(flags),
        reasons=reasons,
    )
