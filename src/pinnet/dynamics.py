"""Simulation of the pinned network and empirical Lyapunov-decay checking.

The network integrates

    x_i' = f(x_i) - sigma B sum_j l_ij x_j + p_i K (s - x_i),    s' = f(s)

with classical fixed-step RK4, jointly for the states and the reference.
Two node-dynamics families ship, each with a closed-form bound on the
mean-value coupling matrix F(xi, xi~) defined by F (xi - xi~) = f(xi) - f(xi~):

  - Linear f(x) = A x: F = A constant, bound ||A||;
  - ScalarSaturated f(x) = a x + b tanh(x) (n = 1): F = a + b * (tanh xi -
    tanh xi~)/(xi - xi~), bound |a| + |b|.

The decay witness is V(t) = sum_i e_i^T Q e_i for the supplied Q, the only
positive definite matrix the criteria carry.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .criteria import PinnedSystemSpec
from .errors import DivergenceError, ValidationError
from .graphs import laplacian
from .spectral import spectral_norm

OVERFLOW_GUARD = 1e12
HORIZON_RTOL = 1e-9


@dataclass(frozen=True)
class LinearDynamics:
    """f(x) = A x."""

    matrix: np.ndarray

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.matrix, dtype=float))
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValidationError(f"dynamics matrix must be square, got {a.shape}")
        a.setflags(write=False)
        object.__setattr__(self, "matrix", a)

    @property
    def state_dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def f_bound(self) -> float:
        return spectral_norm(self.matrix)

    def f(self, x: np.ndarray) -> np.ndarray:
        return x @ self.matrix.T


@dataclass(frozen=True)
class ScalarSaturatedDynamics:
    """f(x) = a x + b tanh(x), scalar states only."""

    a: float
    b: float

    @property
    def state_dim(self) -> int:
        return 1

    @property
    def f_bound(self) -> float:
        return abs(self.a) + abs(self.b)

    def f(self, x: np.ndarray) -> np.ndarray:
        return self.a * x + self.b * np.tanh(x)

    def coupling_ratio(self, xi, xi_tilde):
        """F(xi, xi~) with the sech^2 limit on the diagonal xi == xi~."""
        xi = np.asarray(xi, dtype=float)
        xi_tilde = np.asarray(xi_tilde, dtype=float)
        diff = xi - xi_tilde
        with np.errstate(divide="ignore", invalid="ignore"):
            quot = (np.tanh(xi) - np.tanh(xi_tilde)) / diff
        limit = 1.0 / np.cosh(xi) ** 2
        return self.a + self.b * np.where(diff == 0.0, limit, quot)


NodeDynamics = LinearDynamics | ScalarSaturatedDynamics


@dataclass(frozen=True)
class SimConfig:
    system: PinnedSystemSpec
    dynamics: NodeDynamics
    x0: np.ndarray
    s0: np.ndarray
    t0: float
    t_end: float
    dt: float

    def __post_init__(self):
        n = self.system.state_dim
        if self.dynamics.state_dim != n:
            raise ValidationError(
                f"dynamics dimension {self.dynamics.state_dim} does not match "
                f"system dimension {n}"
            )
        shapes = {"x0": (self.system.graph.num_nodes, n), "s0": (n,)}
        for name, shape in shapes.items():
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.size != math.prod(shape):
                raise ValidationError(
                    f"{name} must hold {math.prod(shape)} values, got {arr.size}"
                )
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"{name} must be finite")
            arr = arr.reshape(shape)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.dt <= 0:
            raise ValidationError(f"dt must be positive, got {self.dt}")
        span = self.t_end - self.t0
        if self.dt > span:
            raise ValidationError("dt must not exceed the time span")
        for name in ("t0", "t_end", "dt"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite, got {getattr(self, name)}")
        if abs(round(span / self.dt) * self.dt - span) > HORIZON_RTOL * span:
            raise ValidationError(
                f"dt = {self.dt} does not divide t_end - t0 = {span}; "
                "the run would end before or after t_end"
            )


@dataclass(frozen=True)
class Trajectory:
    """Sampled run: states x_i(t), reference s(t), errors e_i = s - x_i,
    and Lyapunov values V(t) = sum_i e_i^T Q e_i."""

    times: np.ndarray
    states: np.ndarray
    reference: np.ndarray
    errors: np.ndarray
    lyapunov: np.ndarray

    @property
    def steps(self) -> int:
        return self.times.shape[0] - 1

    def final_error_norm(self) -> float:
        return float(np.linalg.norm(self.errors[-1]))


def _coupling_terms(config: SimConfig):
    spec = config.system
    sigma_l = spec.sigma * laplacian(spec.graph).array
    bt = spec.b_matrix.T.copy()
    kt = spec.k_matrix.T.copy()
    pin = np.zeros((spec.graph.num_nodes, 1))
    for i in spec.pinned:
        pin[i, 0] = 1.0
    return sigma_l, bt, kt, pin


def _deriv(dynamics, sigma_l, bt, kt, pin, states, s):
    dx = dynamics.f(states) - (sigma_l @ states) @ bt + pin * ((s - states) @ kt)
    return dx, dynamics.f(s)


def rhs(config: SimConfig, t: float, states: np.ndarray, s: np.ndarray):
    """Right-hand side (dx, ds) of the coupled system at one instant."""
    states = np.asarray(states, dtype=float)
    s = np.asarray(s, dtype=float)
    if not (np.all(np.isfinite(states)) and np.all(np.isfinite(s))):
        raise DivergenceError(
            f"non-finite state at t = {t}", time=t, last_finite_index=-1
        )
    return _deriv(config.dynamics, *_coupling_terms(config), states, s)


def simulate(config: SimConfig) -> Trajectory:
    """Integrate with classical RK4 at fixed step dt, sampling every step.

    Raises DivergenceError (carrying the partial trajectory) as soon as any
    state magnitude exceeds 1e12 or becomes non-finite.
    """
    spec = config.system
    n_nodes, n = config.x0.shape
    n_steps = int(round((config.t_end - config.t0) / config.dt))
    dt = config.dt
    times = config.t0 + dt * np.arange(n_steps + 1)

    states = np.empty((n_steps + 1, n_nodes, n))
    reference = np.empty((n_steps + 1, n))
    states[0] = config.x0
    reference[0] = config.s0

    dyn = config.dynamics
    sigma_l, bt, kt, pin = _coupling_terms(config)
    x = config.x0.copy()
    s = config.s0.copy()
    half = dt / 2.0

    for k in range(n_steps):
        k1x, k1s = _deriv(dyn, sigma_l, bt, kt, pin, x, s)
        k2x, k2s = _deriv(dyn, sigma_l, bt, kt, pin, x + half * k1x, s + half * k1s)
        k3x, k3s = _deriv(dyn, sigma_l, bt, kt, pin, x + half * k2x, s + half * k2s)
        k4x, k4s = _deriv(dyn, sigma_l, bt, kt, pin, x + dt * k3x, s + dt * k3s)
        x = x + (dt / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        s = s + (dt / 6.0) * (k1s + 2.0 * k2s + 2.0 * k3s + k4s)
        bad = not (np.all(np.isfinite(x)) and np.all(np.isfinite(s)))
        if bad or max(np.abs(x).max(), np.abs(s).max()) > OVERFLOW_GUARD:
            partial = _finalize(spec, times[: k + 1], states[: k + 1], reference[: k + 1])
            raise DivergenceError(
                f"state overflow at t = {times[k + 1]:.6g} (step {k + 1})",
                time=float(times[k + 1]),
                last_finite_index=k,
                trajectory=partial,
            )
        states[k + 1] = x
        reference[k + 1] = s

    return _finalize(spec, times, states, reference)


def _finalize(spec: PinnedSystemSpec, times, states, reference) -> Trajectory:
    errors = reference[:, None, :] - states
    q = spec.q_matrix.array
    lyapunov = np.einsum("tia,ab,tib->t", errors, q, errors)
    for arr in (times, states, reference, errors, lyapunov):
        arr.setflags(write=False)
    return Trajectory(times, states, reference, errors, lyapunov)


@dataclass
class DecayReport:
    ok: bool
    atol: float
    violations: list[tuple[int, float, float, float, float]]

    def __bool__(self) -> bool:
        return self.ok


def check_decay(traj: Trajectory) -> DecayReport:
    """True iff V decreases strictly across samples wherever V > atol.

    atol is 1e-10 V(0); per-step slack 1e-9 V(0) absorbs integrator noise.
    When V(0) is exactly zero (start on the reference) a round-off floor
    relative to the trajectory's largest V stands in, so consensus runs pass
    vacuously. Violations list (index, t_k, t_{k+1}, V_k, V_{k+1}).
    """
    v = traj.lyapunov
    v0 = float(v[0])
    if v0 > 0.0:
        atol = 1e-10 * v0
        slack = 1e-9 * v0
    else:
        atol = 1e-20 * max(1.0, float(v.max()))
        slack = 0.0
    violations = []
    for k in range(len(v) - 1):
        if v[k] > atol and v[k + 1] >= v[k] + slack:
            violations.append(
                (k, float(traj.times[k]), float(traj.times[k + 1]), float(v[k]), float(v[k + 1]))
            )
    return DecayReport(ok=not violations, atol=atol, violations=violations)


def write_trajectory_csv(traj: Trajectory, target) -> None:
    """CSV export with header t,node,component,x,e,V (V repeated per row)."""
    if isinstance(target, (str, bytes)) or hasattr(target, "__fspath__"):
        with open(target, "w", newline="") as fh:
            _write_csv(traj, fh)
    else:
        _write_csv(traj, target)


def _write_csv(traj: Trajectory, fh: io.TextIOBase) -> None:
    writer = csv.writer(fh)
    writer.writerow(["t", "node", "component", "x", "e", "V"])
    n_samples, n_nodes, n = traj.states.shape
    for k in range(n_samples):
        t = traj.times[k]
        v = traj.lyapunov[k]
        for i in range(n_nodes):
            for c in range(n):
                writer.writerow(
                    [repr(float(t)), i, c,
                     repr(float(traj.states[k, i, c])),
                     repr(float(traj.errors[k, i, c])),
                     repr(float(v))]
                )


def trajectory_summary(traj: Trajectory) -> dict:
    """Run summary: final error norm, decay verdict, step count."""
    return {
        "final_error_norm": traj.final_error_norm(),
        "decayed": bool(check_decay(traj)),
        "steps": traj.steps,
    }
