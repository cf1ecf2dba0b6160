"""Sufficient-controllability criteria for pinned coupled-oscillator networks.

A pinned system couples N identical n-dimensional oscillators through a graph
Laplacian L with strength sigma, and injects feedback u_i = p_i K (s - x_i)
at the pinned nodes. Controllability (Lyapunov decay of the error system) is
certified through the smallest nonzero eigenvalue of sigma L + kappa P:

  - structural check: QK + K^T Q^T = kappa (QB + B^T Q^T) with
    QB + B^T Q^T >= 0, to the fixed relative tolerance STRUCTURAL_TOL;
  - exact route: compare lambda_min>0(sigma L + kappa P) against the
    threshold 2 f_bound ||Q|| / lambda_min(QB + B^T Q^T) from the quadratic
    Lyapunov argument;
  - certificate route: lower-bound that eigenvalue in closed form from the
    graph data alone (iterative_bound), and invert a looser quotient-form
    chain bound for a sufficient gain (kappa_threshold).

evaluate() is the one report of all three; the structural and exact checks
live only there.

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

Every verdict needs a pin in each connected component. A component without
one keeps its consensus zero mode, which lambda_min>0 skips, so its error
never decays however large the exact value reads; both verdicts are then
False, with the component named in reasons["unpinned_component"], and
kappa_threshold is undefined. The exact verdict also needs sigma L + kappa P
positive definite: with every component pinned but kappa within the rank
tolerance (kappa = 0 is no control at all), lambda_min>0 skips the undamped
smallest eigenvalue too, and reasons["singular_operator"] reports it.

Each spectral quantity is computed once per spec: sigma lambda_min>0(L),
lambda_min and norm of QB + B^T Q^T, and ||Q|| are memoised on it at first
read (a failure raises again on the next read), and evaluate solves the
operator once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .bounds import lili_term
from .errors import PinnetError, PreconditionError, ThresholdUndefinedError, ValidationError
from .graphs import Graph, _index, connected_components, degrees, laplacian
from .spectral import (
    SymMatrix,
    as_sym_matrix,
    eig_values,
    lambda_min_gt0,
    lambda_min_gt0_sorted,
    spectral_norm,
)

EXACT_MARGIN = 1e-12
STRUCTURAL_TOL = 1e-9
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
    """The pin rule: distinct integer node indices in range(num_nodes)."""
    pinned = tuple(_index(i, "pinned index") for i in pinned)
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
        if not (np.isfinite(b).all() and np.isfinite(k).all()):
            raise ValidationError("B and K entries must be finite")
        b.setflags(write=False)
        k.setflags(write=False)
        object.__setattr__(self, "b_matrix", b)
        object.__setattr__(self, "k_matrix", k)
        w = eig_values(q)
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
    def _qb_spectrum(self) -> tuple[float, float]:
        """lambda_min(QB + B^T Q^T) and its spectral norm max |lambda|, one eigensolve."""
        qb = self.q_matrix.array @ self.b_matrix
        w = eig_values(SymMatrix(qb + qb.T))
        return float(w[-1]), float(np.abs(w).max())

    @cached_property
    def _q_norm(self) -> float:
        return spectral_norm(self.q_matrix.array)

    @cached_property
    def _components(self) -> list[list[int]]:
        return connected_components(self.graph)

    @cached_property
    def _unpinned_reason(self) -> str | None:
        """Names the first component without a pin, or None if every one has one."""
        unpinned = [c for c in self._components if set(self.pinned).isdisjoint(c)]
        if not unpinned:
            return None
        more = f" ({len(unpinned)} components have none)" if len(unpinned) > 1 else ""
        return f"component {_node_ranges(unpinned[0])} has no pinned node{more}"


def _node_ranges(nodes: list[int]) -> str:
    """Sorted node indices as {0..4, 7}: consecutive runs collapse to a..b."""
    runs: list[list[int]] = []
    for i in nodes:
        if runs and i == runs[-1][1] + 1:
            runs[-1][1] = i
        else:
            runs.append([i, i])
    return "{" + ", ".join(str(a) if a == b else f"{a}..{b}" for a, b in runs) + "}"


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
    """sigma L + kappa P as a dense symmetric matrix, P the 0/1 pinned diagonal:
    one scaled copy of g's memoised Laplacian with kappa added at the pins.
    It is exactly symmetric by construction, so of the matrix checks only
    finiteness (sigma deg_i can overflow) is made."""
    _check_gains(sigma, kappa)
    pins = list(_check_pins(pinned, g.num_nodes))
    with np.errstate(over="ignore"):  # an overflow is reported by the finiteness check
        arr = sigma * laplacian(g).array
        arr[pins, pins] += kappa
    return SymMatrix._exact(arr)


def rhs_threshold(spec: PinnedSystemSpec) -> float:
    """Decay threshold 2 f_bound ||Q|| / lambda_min(QB + B^T Q^T). The quotient
    is degenerate when that lambda_min is at most QB_DEGENERATE_TOL times
    ||QB + B^T Q^T||, a test that scaling Q leaves unchanged."""
    lam, norm = spec._qb_spectrum
    if lam <= QB_DEGENERATE_TOL * norm:
        raise PreconditionError(
            f"lambda_min(QB + B^T Q^T) = {lam:.3e} is not above {QB_DEGENERATE_TOL:.0e} "
            f"of its norm {norm:.3e}; the threshold quotient is degenerate"
        )
    return 2.0 * spec.f_bound * spec._q_norm / lam


def sigma_lambda_min_gt0(spec: PinnedSystemSpec) -> float:
    """sigma times the smallest nonzero Laplacian eigenvalue."""
    return spec._sigma_lambda


def certificate_bound(s: float, sigma: float, kappa: float, pinned_degrees) -> float:
    """s - sum_i lili_term(kappa - s, sigma kappa deg_i); kappa > s unless no pins.

    Computed in units of 2^e, e the exponent of s. Dividing by 2^e is exact,
    so the bits are the plain formula's wherever that stays in range, and
    sigma kappa deg_i no longer underflows or overflows at extreme scales."""
    if len(pinned_degrees) == 0:
        return s
    if kappa <= s:
        raise PreconditionError(
            f"kappa = {kappa:.6g} must exceed sigma*lambda_min>0(L) = {s:.6g}"
        )
    _, e = math.frexp(s)
    s, sigma, kappa = (math.ldexp(x, -e) for x in (s, sigma, kappa))
    eta = kappa - s
    return math.ldexp(
        s - sum(lili_term(eta, sigma * kappa * float(d)) for d in pinned_degrees), e)


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
    """Sufficient gain: where the quotient-form chain bound meets rhs_threshold.

    With s = sigma lambda_min>0(L), m = s - rhs_threshold and D the pinned
    degree sum, each term of iterative_bound is at most sigma kappa deg_i /
    (kappa - s), so iterative_bound >= s - sigma kappa D / (kappa - s) for
    kappa > s. That chain bound increases in kappa, and this function
    inverts it at rhs_threshold:

      kappa_threshold = s * m / (m - sigma D),  defined iff m > sigma D.

    verdict_theorem means kappa >= kappa_threshold; any such kappa gives
    iterative_bound >= rhs_threshold and hence a true exact verdict. It is
    not the smallest such kappa: the tighter iterative_bound can clear
    rhs_threshold well below it (K5, sigma 1, pin 0, f_bound 0.5: 0.528 >=
    0.5 at kappa 5.01, while kappa_threshold is 45 up to round-off). Raises
    ThresholdUndefinedError when a connected component has no pin (no pins
    at all, pins whose degree sum is 0, an edgeless graph), when the decay
    condition fails (m <= 0), or when the chain bound saturates below the
    threshold (m <= sigma D, which happens whenever the pinned degree sum
    reaches the algebraic connectivity).
    """
    unpinned = spec._unpinned_reason
    if unpinned is not None:
        raise ThresholdUndefinedError(
            f"no kappa can certify controllability: {unpinned}", unpinned
        )
    rhs = rhs_threshold(spec)
    s = sigma_lambda_min_gt0(spec)
    margin = s - rhs
    if margin <= 0:
        inequality = f"rhs_threshold {rhs:.6g} >= sigma*lambda_min>0(L) {s:.6g}"
        raise ThresholdUndefinedError(
            f"decay condition fails, no kappa can certify controllability: {inequality}",
            inequality,
        )
    deg_sum = float(degrees(spec.graph)[list(spec.pinned)].sum())
    if margin <= spec.sigma * deg_sum:
        inequality = (
            f"sigma*lambda_min>0(L) - rhs_threshold {margin:.6g} <= "
            f"sigma * pinned degree sum {spec.sigma * deg_sum:.6g}"
        )
        raise ThresholdUndefinedError(
            f"certificate saturates below the threshold, no kappa suffices: {inequality}",
            inequality,
        )
    _, e = math.frexp(s)  # in units of 2^e, as certificate_bound
    s, margin, sigma = (math.ldexp(x, -e) for x in (s, margin, spec.sigma))
    return math.ldexp(s * margin / (margin - sigma * deg_sum), e)


def evaluate(spec: PinnedSystemSpec) -> CriterionReport:
    """The criterion report: structural, exact and certificate answers in one.

    Structural: QK + K^T Q^T = kappa (QB + B^T Q^T) to within STRUCTURAL_TOL
    times the larger norm of the two sides, and lambda_min(QB + B^T Q^T) >=
    -STRUCTURAL_TOL ||QB + B^T Q^T||; both tests are unchanged by scaling Q.
    Exact: lambda_min>0(sigma L + kappa P) >= rhs_threshold up to
    EXACT_MARGIN |rhs_threshold|, read with lambda_min(sigma L + kappa P)
    from one eigensolve; the product form (1/2) lambda_min(sigma L + kappa P)
    lambda_min(QB + B^T Q^T) vs f_bound ||Q|| is reported beside it and
    matches the quotient form whenever the pinned operator is positive
    definite. Individual failures become reasons, not aborts.

    verdict_theorem: structural identities hold, the decay condition holds,
    and kappa >= kappa_threshold. verdict_exact: structural identities hold,
    every connected component has a pin, sigma L + kappa P is positive
    definite (lambda_min>0 equals lambda_min, so no eigenvalue was skipped as
    zero), and the exact comparison clears rhs_threshold. The first implies
    the second by construction of the bound chain; kappa_threshold is
    undefined when a component has no pin.
    """
    q = spec.q_matrix.array
    qk = q @ spec.k_matrix
    qb = q @ spec.b_matrix
    qk_sym = qk + qk.T
    residual = spectral_norm(qk_sym - spec.kappa * (qb + qb.T))
    qb_lam, qb_norm = spec._qb_spectrum
    scale = max(spectral_norm(qk_sym), spec.kappa * qb_norm)
    structural_ok = bool(residual <= STRUCTURAL_TOL * scale
                         and qb_lam >= -STRUCTURAL_TOL * qb_norm)
    reasons: dict[str, str] = {}
    flags: list[str] = []

    connected = len(spec._components) == 1
    if not connected:
        flags.append("disconnected")
    unpinned = spec._unpinned_reason
    if not spec.pinned:
        flags.append("no_pinned_nodes")
    elif unpinned is not None:
        flags.append("unpinned_component")

    def attempt(name: str, fn):
        try:
            return fn()
        except PinnetError as exc:
            reasons[name] = str(exc)
            return None

    def exact_pair():
        rhs_threshold(spec)  # a degenerate QB is the exact step's reason too
        w = eig_values(pinned_operator(spec.graph, spec.sigma, spec.kappa, spec.pinned))
        return lambda_min_gt0_sorted(w), float(w[-1])

    s = attempt("sigma_lambda", lambda: sigma_lambda_min_gt0(spec))
    rhs = attempt("rhs_threshold", lambda: rhs_threshold(spec))
    f_ok = (rhs < s) if (rhs is not None and s is not None) else None
    if f_ok is None:
        reasons.setdefault("f_condition", "undefined: see rhs_threshold / sigma_lambda")
    bound = attempt("iterative_bound", lambda: iterative_bound(spec))
    kthr = attempt("kappa_threshold", lambda: kappa_threshold(spec))
    exact = attempt("exact_lambda", exact_pair)
    exact_lambda, exact_lambda_min = (None, None) if exact is None else exact

    verdict_theorem = bool(
        structural_ok and f_ok is True and kthr is not None and spec.kappa >= kthr
    )
    # lambda_min>0 skipped an eigenvalue: sigma L + kappa P is singular
    singular = exact is not None and exact_lambda != exact_lambda_min
    if unpinned is not None:
        reasons["unpinned_component"] = unpinned
    elif singular:
        reasons["singular_operator"] = (
            f"lambda_min(sigma L + kappa P) = {exact_lambda_min:.6g} is within the rank "
            "tolerance, so the pinned operator is not positive definite"
        )
    verdict_exact = bool(
        structural_ok
        and unpinned is None
        and exact is not None
        and not singular
        and exact_lambda >= rhs - EXACT_MARGIN * abs(rhs)
    )

    return CriterionReport(
        structural_ok=structural_ok,
        identity_residual=float(residual),
        qb_lambda_min=float(qb_lam),
        connected=connected,
        sigma_lambda=s,
        rhs_threshold=rhs,
        f_condition_ok=f_ok,
        iterative_bound=bound,
        kappa_threshold=kthr,
        exact_lambda=exact_lambda,
        exact_lambda_min=exact_lambda_min,
        proposition_lhs=None if exact is None else float(0.5 * exact_lambda_min * qb_lam),
        proposition_rhs=None if exact is None else float(spec.f_bound * spec._q_norm),
        verdict_theorem=verdict_theorem,
        verdict_exact=verdict_exact,
        flags=tuple(flags),
        reasons=reasons,
    )
