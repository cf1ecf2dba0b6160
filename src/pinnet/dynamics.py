"""Simulation of the pinned network and empirical Lyapunov-decay checking.

The network integrates

    x_i' = f(x_i) - sigma B sum_j l_ij x_j + p_i K (s - x_i),    s' = f(s)

with classical fixed-step RK4 on one stacked state z of shape (N+1, n): rows
0..N-1 are the nodes x_i and row N is the reference s. With f split into its
linear part A and a nonlinear remainder phi, every RK4 stage evaluates

    dz/dt = sum_t G_t z M_t^T + phi(z) = z A^T - sigma L^ z B^T - P^ z K^T + phi(z),

where L^ is L padded with a zero reference row and column and (P^ z)_i =
x_i - s for pinned i, zero elsewhere. The terms are built once per config:
for n = 1 they fold into one matrix G = a I - b sigma L^ - k P^; for n >= 2
they stay apart, P^ applied as a row mask, and no ((N+1) n)^2 matrix is
formed. Samples agree with the per-block formula to 8 eps of each sample's
largest magnitude, not bit for bit. There is no one-matmul RK4 propagator
for linear runs: its rounding is a bias every step reapplies (step halving fails).
A step rounds as the textbook z + dt/6 (k1 + 2 k2 + 2 k3 + k4) but writes its
stages in place into buffers allocated once per run, with dt/2, dt, dt/6, 2 and
the remainder's gain held as state-shaped arrays. The overflow guard reads the
samples once per 64 steps and at the last step and cuts at the first offender.

Two node-dynamics families ship, each with a closed-form bound on the
mean-value coupling matrix F(xi, xi~) defined by F (xi - xi~) = f(xi) - f(xi~):

  - Linear f(x) = A x: F = A constant, bound ||A||; no remainder;
  - ScalarSaturated f(x) = a x + b tanh(x) (n = 1): F = a + b * (tanh xi -
    tanh xi~)/(xi - xi~), bound |a| + |b|; remainder b tanh(x).

The decay witness is V(t) = sum_i e_i^T Q e_i for the supplied Q, the only
positive definite matrix the criteria carry.
"""

from __future__ import annotations

import contextlib
import math
import os
import pathlib
import shutil
import signal
import tempfile
from dataclasses import dataclass

import numpy as np

from .criteria import PinnedSystemSpec
from .errors import ValidationError
from .graphs import laplacian
from .spectral import _pow2_scaled, spectral_norm

OVERFLOW_GUARD = 1e12
HORIZON_RTOL = 1e-9
MIN_ROWS_PER_WORKER = 4096
MAX_WORKERS = 2
CGROUP = pathlib.Path("/sys/fs/cgroup")


@dataclass(frozen=True)
class LinearDynamics:
    """f(x) = A x."""

    matrix: np.ndarray

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.matrix, dtype=float))
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValidationError(f"dynamics matrix must be square, got {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValidationError("dynamics matrix must be finite")
        a.setflags(write=False)
        object.__setattr__(self, "matrix", a)

    @property
    def state_dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def f_bound(self) -> float:
        return spectral_norm(self.matrix)

    linear_part = property(lambda self: self.matrix)
    tanh_gain = None


@dataclass(frozen=True)
class ScalarSaturatedDynamics:
    """f(x) = a x + b tanh(x), scalar states only."""

    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValidationError(
                f"dynamics coefficients must be finite, got a = {self.a}, b = {self.b}"
            )

    @property
    def state_dim(self) -> int:
        return 1

    @property
    def f_bound(self) -> float:
        return abs(self.a) + abs(self.b)

    linear_part = property(lambda self: np.array([[self.a]]))
    tanh_gain = property(lambda self: self.b)


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
        if not math.isfinite(span / self.dt):
            raise ValidationError(f"the step count (t_end - t0) / dt = ({self.t_end} - "
                                  f"{self.t0}) / {self.dt} overflows")
        if abs(round(span / self.dt) * self.dt - span) > HORIZON_RTOL * span:
            raise ValidationError(
                f"dt = {self.dt} does not divide t_end - t0 = {span}; "
                "the run would end before or after t_end"
            )


@dataclass(frozen=True)
class Trajectory:
    """Sampled run: states x_i(t), reference s(t), errors e_i = s - x_i,
    and Lyapunov values V(t) = sum_i e_i^T Q e_i. A run that tripped the
    overflow guard is returned, not raised: it holds the finite samples and
    diverged_at is the time of the step that overflowed, else None.
    final_error_norm() is inf when the norm exceeds the largest float."""

    times: np.ndarray
    states: np.ndarray
    reference: np.ndarray
    errors: np.ndarray
    lyapunov: np.ndarray
    diverged_at: float | None = None

    @property
    def steps(self) -> int:
        return self.times.shape[0] - 1

    def final_error_norm(self) -> float:
        scaled, exp = _pow2_scaled(self.errors[-1])
        with np.errstate(over="ignore"):
            return float(np.ldexp(np.linalg.norm(scaled), exp))


def _derivative(config: SimConfig):
    """deriv(z, out) writes dz/dt = sum_t G_t z M_t^T + phi(z) of the stacked state
    z into out (not z); each ufunc and product writes into its last argument. The
    operator, the remainder's gain and the scratch are built once per config."""
    spec, dyn = config.system, config.dynamics
    n_nodes, pins = spec.graph.num_nodes, list(spec.pinned)
    t1, t2 = np.empty((2, n_nodes + 1, dyn.state_dim))
    g = np.zeros((n_nodes + 1, n_nodes + 1))
    np.multiply(-spec.sigma, laplacian(spec.graph).array, out=g[:n_nodes, :n_nodes])
    if dyn.state_dim == 1:
        k = spec.k_matrix[0, 0]
        g *= spec.b_matrix[0, 0]
        g[pins, pins] -= k
        g[pins, n_nodes] += k
        g.flat[:: n_nodes + 2] += dyn.linear_part[0, 0]
        linear = g.dot
    else:
        at, bt, kt = (m.T.copy() for m in (dyn.linear_part, spec.b_matrix, spec.k_matrix))
        pin = np.isin(np.arange(n_nodes + 1), pins)[:, None] * 1.0

        def linear(z, out):
            np.matmul(z, at, out)
            np.add(out, np.matmul(np.matmul(g, z, t1), bt, t2), out)
            np.multiply(pin, np.subtract(z[n_nodes], z, t1), t1)
            np.add(out, np.matmul(t1, kt, t2), out)

    if dyn.tanh_gain is None:
        return linear
    b = np.full_like(t1, dyn.tanh_gain)

    def deriv(z, out):
        linear(z, out)
        np.add(out, np.multiply(b, np.tanh(z, t1), t1), out)
    return deriv


def simulate(config: SimConfig) -> Trajectory:
    """Integrate with classical RK4 at fixed step dt, sampling every step.

    Trajectory.states and .reference are views of the stacked samples. A
    step that makes any state magnitude exceed 1e12 or become non-finite
    ends the run: the trajectory returned holds the finite samples before it
    and sets diverged_at to that step's time. Only a horizon whose samples
    cannot be allocated raises, a ValidationError before any step.
    """
    n_steps = int(round((config.t_end - config.t0) / config.dt))
    dt = config.dt
    z0 = np.vstack([config.x0, config.s0])
    try:
        times = config.t0 + dt * np.arange(n_steps + 1)
        samples = np.empty((n_steps + 1, *z0.shape))
    except (ValueError, MemoryError) as exc:
        raise ValidationError(f"cannot allocate the samples of {n_steps:.6g} steps: {exc}") from exc
    samples[0] = z0
    deriv = _derivative(config)
    half, full, sixth, two = (np.full_like(z0, c) for c in (dt / 2.0, dt, dt / 6.0, 2.0))
    k1, k2, k3, k4, y = np.empty((5, *z0.shape))

    # overflowed steps are reported as diverged_at, so they warn of nothing
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            z = samples[k]  # each ufunc and product below writes into its last argument
            deriv(z, k1)
            deriv(np.add(z, np.multiply(half, k1, y), y), k2)
            deriv(np.add(z, np.multiply(half, k2, y), y), k3)
            deriv(np.add(z, np.multiply(full, k3, y), y), k4)
            # z + dt/6 (k1 + 2 k2 + 2 k3 + k4), summed left to right
            np.add(k1, np.multiply(two, k2, k2), k1)
            np.add(k1, np.multiply(two, k3, k3), k1)
            np.add(z, np.multiply(sixth, np.add(k1, k4, k1), k1), samples[k + 1])
            if (k + 1) % 64 and k + 1 < n_steps:
                continue
            # check the samples since the last check; NaN and inf fail <= too
            first = k - k % 64 + 1
            ok = np.abs(samples[first : k + 2]).max(axis=(1, 2)) <= OVERFLOW_GUARD
            if not ok.all():
                end = first + int(ok.argmin())
                return _finalize(config.system, times[:end], samples[:end], float(times[end]))

    return _finalize(config.system, times, samples)


def _finalize(spec: PinnedSystemSpec, times, samples, diverged_at=None) -> Trajectory:
    samples.setflags(write=False)
    states, reference = samples[:, :-1], samples[:, -1]
    errors = reference[:, None, :] - states
    lyapunov = np.einsum("tia,ab,tib->t", errors, spec.q_matrix.array, errors)
    for arr in (times, errors, lyapunov):
        arr.setflags(write=False)
    return Trajectory(times, states, reference, errors, lyapunov, diverged_at)


@dataclass
class DecayReport:
    ok: bool
    atol: float
    violations: list[tuple[int, float, float, float, float]]

    def __bool__(self) -> bool:
        return self.ok


def check_decay(traj: Trajectory) -> DecayReport:
    """True iff the run reached its horizon and V decreases strictly across
    samples wherever V > atol; a diverged run never decays.

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
    ks = np.flatnonzero((v[:-1] > atol) & (v[1:] >= v[:-1] + slack))
    t = traj.times
    violations = list(zip(ks.tolist(), t[ks].tolist(), t[ks + 1].tolist(),
                          v[ks].tolist(), v[ks + 1].tolist()))
    ok = traj.diverged_at is None and not violations
    return DecayReport(ok=ok, atol=atol, violations=violations)


def _quota_cpus(cpus: int) -> int:
    """cpus, or the whole CPUs a cgroup CPU quota grants where fewer (at least one): v2
    cpu.max, else v1 cpu.cfs_quota_us over cpu.cfs_period_us; cpus where none can be read."""
    for names in (("cpu.max",), ("cpu/cpu.cfs_quota_us", "cpu/cpu.cfs_period_us")):
        with contextlib.suppress(OSError, ValueError):
            quota, period = (int(w) for n in names for w in (CGROUP / n).read_text().split())
            return min(cpus, max(1, quota // period)) if quota > 0 else cpus
    return cpus


def _workers(n_rows: int) -> int:
    """Export ranges: one per usable CPU (affinity and cgroup quota) up to MAX_WORKERS, each of
    MIN_ROWS_PER_WORKER rows or more; one without os.fork, or where SIGCHLD is not at its
    default (another reaper may run)."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    forks = hasattr(os, "fork") and signal.getsignal(signal.SIGCHLD) == signal.SIG_DFL
    cpus = _quota_cpus(cpus) if forks else 1
    return max(1, min(cpus, MAX_WORKERS, n_rows // MIN_ROWS_PER_WORKER))


def _write_rows(fh, traj: Trajectory, lo: int, hi: int) -> None:
    """Samples lo..hi-1 into the binary file fh, one filled row template per sample."""
    template = "".join(f"\0,{i},{c},%r,%r,\1\r\n" for i, c in np.ndindex(traj.states.shape[1:]))
    for t, v, x, e in zip(traj.times[lo:hi].tolist(), traj.lyapunov[lo:hi].tolist(),
                          traj.states[lo:hi], traj.errors[lo:hi]):
        xe = np.stack((x, e), axis=-1).ravel().tolist()
        fh.write((template.replace("\0", repr(t)).replace("\1", repr(v)) % tuple(xe)).encode())


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """CSV export to path, byte for byte what csv.writer writes by default:
    header t,node,component,x,e,V, then rows by sample, node and component,
    each ending in \\r\\n, with t, x, e and V as repr floats (V repeated on
    each row of its sample). It forks and reaps its own workers: of the
    _workers(rows) sample ranges it writes the first, and one worker per later
    range writes an unnamed temporary file beside path (one range if none can
    be made there), appended in order. A failed worker raises OSError with its
    errno; any exception kills and reaps every worker before it propagates."""
    with open(path, "wb") as fh, contextlib.ExitStack() as parts:
        cuts = np.linspace(0, traj.times.shape[0], _workers(traj.states.size) + 1).astype(int).tolist()
        try:
            folder = os.path.dirname(os.path.abspath(path))
            files = [parts.enter_context(tempfile.TemporaryFile(dir=folder)) for _ in cuts[2:]]
        except OSError:
            files, cuts = [], [0, cuts[-1]]
        children = []
        try:
            for lo, hi, part in zip(cuts[1:-1], cuts[2:], files):
                if (pid := os.fork()) == 0:  # a worker ends in os._exit on every path,
                    try:  # so it flushes no buffer inherited from this process
                        _write_rows(part, traj, lo, hi)
                        part.flush()
                        os._exit(0)
                    except OSError as exc:
                        os._exit(min(exc.errno or 255, 255))
                    finally:
                        os._exit(255)
                children.append((pid, part))
            fh.write(b"t,node,component,x,e,V\r\n")
            _write_rows(fh, traj, 0, cuts[1])
            while children:
                code = os.waitstatus_to_exitcode(os.waitpid(children[0][0], 0)[1])
                part = children.pop(0)[1]
                if 0 < code < 255:
                    raise OSError(code, os.strerror(code))
                if code:
                    raise OSError(f"a trajectory CSV worker exited with status {code}")
                part.seek(0)
                shutil.copyfileobj(part, fh)
        finally:
            for pid, _ in children:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def trajectory_summary(traj: Trajectory) -> dict:
    """Run summary: final error norm (None past the largest float), decay verdict, step count."""
    norm = traj.final_error_norm()
    return {
        "final_error_norm": norm if math.isfinite(norm) else None,
        "decayed": bool(check_decay(traj)),
        "steps": traj.steps,
    }
