import csv
import dataclasses
import errno
import functools
import math
import os
import signal
import tempfile
import time
import warnings

import numpy as np
import pytest
import scipy.linalg

from pinnet import (
    Graph,
    LinearDynamics,
    PinnedSystemSpec,
    ScalarSaturatedDynamics,
    SimConfig,
    SymMatrix,
    Trajectory,
    ValidationError,
    check_decay,
    complete_graph,
    erdos_renyi,
    laplacian,
    path_graph,
    simulate,
    trajectory_summary,
    write_trajectory_csv,
)
from pinnet import dynamics
from pinnet.dynamics import (
    AUGMENTED_MAX_ROWS,
    MAX_WORKERS,
    MIN_ROWS_PER_WORKER,
    OVERFLOW_GUARD,
    _derivative,
)

from helpers import node_f, scalar_spec


def single_node_spec(kappa):
    import pinnet

    return pinnet.PinnedSystemSpec(
        graph=Graph(1),
        sigma=1.0,
        kappa=kappa,
        b_matrix=np.eye(1),
        k_matrix=kappa * np.eye(1),
        q_matrix=pinnet.SymMatrix(np.eye(1)),
        pinned=(0,),
        f_bound=0.0,
    )


def test_f_bound_values():
    assert LinearDynamics(np.diag([0.5, -0.2])).f_bound == pytest.approx(0.5)
    assert ScalarSaturatedDynamics(0.3, 0.1).f_bound == pytest.approx(0.4)
    assert LinearDynamics(np.zeros((2, 2))).f_bound == 0.0


def test_linear_dynamics_must_be_square():
    for bad in (np.zeros((2, 3)), np.zeros((1, 1, 3))):
        with pytest.raises(ValidationError, match="square"):
            LinearDynamics(bad)


def derivative_at(config, states, s):
    """(dx, ds) of the coupled system, read from one stacked (N+1, n) state."""
    z = np.vstack([states, s])
    d = np.empty_like(z)
    _derivative(config)(z, d)
    return d[:-1], d[-1]


def test_rhs_zero_error_consensus():
    spec = scalar_spec(path_graph(3), 1.0, 2.0, (0,), 0.4)
    dyn = ScalarSaturatedDynamics(0.3, 0.1)
    s = np.array([0.8])
    states = np.tile(s, (3, 1))
    config = SimConfig(spec, dyn, states, s, 0.0, 1.0, 0.01)
    dx, ds = derivative_at(config, states, s)
    assert np.allclose(ds, node_f(dyn, s), atol=0)
    assert np.abs(dx - node_f(dyn, s)).max() <= 1e-12


def test_rhs_isolated_feedback():
    # edgeless graph: coupling vanishes, only the pinned node moves
    spec = PinnedSystemSpec(
        graph=Graph(3),
        sigma=1.0,
        kappa=2.0,
        b_matrix=np.eye(1),
        k_matrix=2.0 * np.eye(1),
        q_matrix=SymMatrix(np.eye(1)),
        pinned=(0,),
        f_bound=0.0,
    )
    dyn = LinearDynamics(np.zeros((1, 1)))
    states = np.array([[0.5], [1.5], [-2.0]])
    s = np.array([1.0])
    config = SimConfig(spec, dyn, states, s, 0.0, 1.0, 0.01)
    dx, ds = derivative_at(config, states, s)
    assert dx[0, 0] == pytest.approx(2.0 * (1.0 - 0.5), abs=0)
    assert dx[1, 0] == 0.0 and dx[2, 0] == 0.0
    assert ds[0] == 0.0


def test_rhs_pure_diffusion():
    spec = scalar_spec(path_graph(2), 1.0, 0.0, (), 0.0)
    dyn = ScalarSaturatedDynamics(0.0, 0.0)
    states = np.array([[1.0], [-0.5]])
    config = SimConfig(spec, dyn, states, np.zeros(1), 0.0, 1.0, 0.01)
    dx, _ = derivative_at(config, states, np.zeros(1))
    expected = -laplacian(path_graph(2)).array @ states
    assert np.allclose(dx, expected, atol=1e-14)


def test_simulate_scalar_closed_form():
    # single pinned node: e'(t) = (a - k) e, so e(T) = exp((a-k)T) e(0)
    a, k, T, dt = 0.5, 2.0, 5.0, 1e-3
    config = SimConfig(
        single_node_spec(k), LinearDynamics([[a]]), np.array([[0.3]]), np.array([1.0]), 0.0, T, dt
    )
    traj = simulate(config)
    expected = (1.0 - 0.3) * math.exp((a - k) * T)
    got = traj.errors[-1, 0, 0]
    assert got == pytest.approx(expected, rel=1e-6)
    assert traj.steps == round(T / dt)


def path3_linear_config(dt, x0=None):
    a, sigma, k = 0.3, 1.0, 3.0
    spec = scalar_spec(path_graph(3), sigma, k, (0,), 0.3)
    if x0 is None:
        x0 = np.array([[0.9], [-0.2], [0.1]])
    return SimConfig(spec, LinearDynamics([[a]]), x0, np.array([0.4]), 0.0, 5.0, dt)


def error_dynamics_matrix():
    a, sigma, k = 0.3, 1.0, 3.0
    L = laplacian(path_graph(3)).array
    return a * np.eye(3) - sigma * L - k * np.diag([1.0, 0.0, 0.0])


def test_simulate_matches_matrix_exponential():
    config = path3_linear_config(1e-3)
    traj = simulate(config)
    e0 = config.s0[None, :] - config.x0
    exact = scipy.linalg.expm(5.0 * error_dynamics_matrix()) @ e0[:, 0]
    got = traj.errors[-1, :, 0]
    assert np.linalg.norm(got - exact) <= 1e-5 * np.linalg.norm(exact)


def test_rk4_step_halving_ratio():
    e0 = None
    finals = {}
    for dt in (2e-2, 1e-2):
        traj = simulate(path3_linear_config(dt))
        finals[dt] = traj.errors[-1, :, 0]
    config = path3_linear_config(1e-2)
    e0 = config.s0[None, :] - config.x0
    exact = scipy.linalg.expm(5.0 * error_dynamics_matrix()) @ e0[:, 0]
    err_coarse = np.linalg.norm(finals[2e-2] - exact)
    err_fine = np.linalg.norm(finals[1e-2] - exact)
    ratio = err_coarse / err_fine
    assert 8.0 <= ratio <= 32.0


def test_consensus_invariance():
    spec = scalar_spec(path_graph(3), 1.0, 2.0, (0,), 0.4)
    s0 = np.array([0.7])
    config = SimConfig(
        spec, ScalarSaturatedDynamics(0.3, 0.1), np.tile(s0, (3, 1)), s0, 0.0, 2.0, 1e-3
    )
    traj = simulate(config)
    assert np.abs(traj.errors).max() <= 1e-10
    report = check_decay(traj)
    assert report.ok  # vacuously: V stays below the round-off floor


def test_trajectory_invariants():
    config = path3_linear_config(1e-2)
    traj = simulate(config)
    assert np.array_equal(traj.errors, traj.reference[:, None, :] - traj.states)
    assert np.all(traj.lyapunov >= 0)
    manual = np.einsum("tia,tia->t", traj.errors, traj.errors)  # Q = I
    assert np.allclose(traj.lyapunov, manual, atol=1e-14)


def test_check_decay_stable_and_unstable():
    stable = simulate(path3_linear_config(1e-2))
    assert check_decay(stable).ok
    # no pins and node growth rate above the coupling: V grows
    spec = scalar_spec(path_graph(3), 0.1, 0.0, (), 1.0)
    config = SimConfig(
        spec,
        LinearDynamics([[1.0]]),
        np.array([[0.9], [-0.2], [0.1]]),
        np.array([0.4]),
        0.0,
        3.0,
        1e-2,
    )
    report = check_decay(simulate(config))
    assert not report.ok
    assert report.violations
    k, t0, t1, v0, v1 = report.violations[0]
    assert t1 > t0 and v1 > v0


def test_divergence_guard():
    spec = scalar_spec(path_graph(2), 1.0, 0.0, (), 5.0)
    config = SimConfig(
        spec,
        LinearDynamics([[5.0]]),
        np.array([[2.0], [-1.0]]),
        np.array([0.5]),
        0.0,
        20.0,
        1e-2,
    )
    traj = simulate(config)
    assert traj.diverged_at is not None and traj.diverged_at > 0
    # the run stops one step past its last finite sample, short of the horizon
    assert traj.steps < 2000
    assert traj.diverged_at == pytest.approx(traj.times[-1] + 1e-2)
    assert np.isfinite(traj.states).all()


def test_csv_export_roundtrip(tmp_path):
    config = path3_linear_config(1.0)  # 5 samples
    traj = simulate(config)
    out = tmp_path / "run.csv"
    write_trajectory_csv(traj, out)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "node", "component", "x", "e", "V"]
    n_samples, n_nodes, n = traj.states.shape
    assert len(rows) == 1 + n_samples * n_nodes * n
    # V repeats across the rows of one sample and round-trips exactly
    first = rows[1]
    assert float(first[5]) == traj.lyapunov[0]
    assert float(rows[2][5]) == traj.lyapunov[0]
    assert float(first[3]) == traj.states[0, 0, 0]
    assert float(first[4]) == traj.errors[0, 0, 0]


def test_trajectory_summary():
    traj = simulate(path3_linear_config(1e-2))
    summary = trajectory_summary(traj)
    assert set(summary) == {"final_error_norm", "decayed", "steps"}
    assert summary["decayed"] is True
    assert summary["steps"] == 500
    assert summary["final_error_norm"] == pytest.approx(np.linalg.norm(traj.errors[-1]))


def test_sim_config_validation():
    spec = scalar_spec(path_graph(3), 1.0, 2.0, (0,), 0.4)
    with pytest.raises(ValidationError):
        SimConfig(spec, ScalarSaturatedDynamics(0.1, 0.1), np.zeros((3, 1)), np.zeros(1), 0.0, 1.0, -0.1)
    with pytest.raises(ValidationError):
        SimConfig(spec, ScalarSaturatedDynamics(0.1, 0.1), np.zeros((3, 1)), np.zeros(1), 0.0, 1.0, 2.0)
    spec2 = scalar_spec(path_graph(3), 1.0, 2.0, (0,), 0.4)
    with pytest.raises(ValidationError):
        SimConfig(spec2, LinearDynamics(np.eye(2)), np.zeros((3, 2)), np.zeros(2), 0.0, 1.0, 0.1)
    dyn = ScalarSaturatedDynamics(0.1, 0.1)
    for t0, t_end, dt in [
        (0.0, math.nan, 0.1),
        (0.0, math.inf, 0.1),
        (0.0, 1.0, math.nan),
        (0.0, math.inf, math.inf),
        (math.nan, 1.0, 0.1),
    ]:
        with pytest.raises(ValidationError, match="must be finite"):
            SimConfig(spec, dyn, np.zeros((3, 1)), np.zeros(1), t0, t_end, dt)
    x0_bad = np.zeros((3, 1))
    x0_bad[1, 0] = math.nan
    for x0, s0 in [(x0_bad, np.zeros(1)), (np.zeros((3, 1)), [math.inf])]:
        with pytest.raises(ValidationError, match="must be finite"):
            SimConfig(spec, dyn, x0, s0, 0.0, 1.0, 0.1)
    for x0, s0 in [(np.zeros(4), np.zeros(1)), (np.zeros((3, 1)), np.zeros(2))]:
        with pytest.raises(ValidationError, match="values"):
            SimConfig(spec, dyn, x0, s0, 0.0, 1.0, 0.1)
    # the horizon is honoured: dt must divide t_end - t0
    for dt in (0.3, 0.35):
        with pytest.raises(ValidationError, match="does not divide"):
            SimConfig(spec, dyn, np.zeros((3, 1)), np.zeros(1), 0.0, 1.0, dt)


@pytest.mark.parametrize("t0, t_end, dt", [(0.0, 1e300, 1e-300), (-1e308, 1e308, 1.0)])
def test_overflowing_step_count_is_a_validation_error(t0, t_end, dt):
    # (t_end - t0) / dt is inf: the first through the quotient, the second
    # through t_end - t0 itself; neither may surface as an OverflowError
    spec = scalar_spec(complete_graph(3), 1.0, 5.0, (0,), 0.3)
    with pytest.raises(ValidationError, match=r"step count \(t_end - t0\) / dt .* overflows"):
        SimConfig(spec, ScalarSaturatedDynamics(0.2, 0.1), np.zeros((3, 1)), np.zeros(1),
                  t0, t_end, dt)


def test_dynamics_coefficients_must_be_finite():
    for a, b in [(math.nan, 0.1), (0.2, math.inf), (-math.inf, 0.0)]:
        with pytest.raises(ValidationError, match="must be finite"):
            ScalarSaturatedDynamics(a, b)
    for bad in ([[math.nan]], [[0.1, 0.0], [math.inf, 0.2]]):
        with pytest.raises(ValidationError, match="must be finite"):
            LinearDynamics(bad)


def test_diverged_run_never_decays():
    # K3 with kappa = 1e15: the first RK4 step overflows, so the partial
    # trajectory is the single initial sample, which has no V increase
    spec = scalar_spec(complete_graph(3), 1.0, 1e15, (0,), 0.3)
    config = SimConfig(spec, ScalarSaturatedDynamics(0.2, 0.1), np.array([[0.1], [0.5], [-0.3]]),
                       np.array([0.2]), 0.0, 1.0, 0.01)
    traj = simulate(config)
    assert traj.steps == 0
    assert traj.diverged_at == pytest.approx(0.01)
    report = check_decay(traj)
    assert not report.ok and report.violations == []
    assert trajectory_summary(traj)["decayed"] is False
    assert simulate(path3_linear_config(1e-2)).diverged_at is None


def test_states_and_reference_share_one_array():
    traj = simulate(path3_linear_config(1e-2))
    assert traj.states.base is not None and traj.states.base is traj.reference.base
    assert not traj.states.flags.writeable and not traj.reference.flags.writeable


# ---------------------------------------------------------------------------
# byte equality with the former two-array integrator, the nested-loop CSV
# writer and the loop decay check, kept here as references


def reference_simulate(config):
    """Separate RK4 updates of the states x and the reference s.

    Returns ((times, states, reference, errors, lyapunov), divergence), where
    divergence is (time, last_finite_index) or None and the arrays are the
    samples up to the last finite step.
    """
    spec = config.system
    sigma_l = spec.sigma * laplacian(spec.graph).array
    bt = spec.b_matrix.T.copy()
    kt = spec.k_matrix.T.copy()
    pin = np.zeros((spec.graph.num_nodes, 1))
    for i in spec.pinned:
        pin[i, 0] = 1.0
    f = functools.partial(node_f, config.dynamics)

    def deriv(states, s):
        dx = f(states) - (sigma_l @ states) @ bt + pin * ((s - states) @ kt)
        return dx, f(s)

    n_nodes, n = config.x0.shape
    n_steps = int(round((config.t_end - config.t0) / config.dt))
    dt = config.dt
    half = dt / 2.0
    times = config.t0 + dt * np.arange(n_steps + 1)
    states = np.empty((n_steps + 1, n_nodes, n))
    reference = np.empty((n_steps + 1, n))
    states[0] = config.x0
    reference[0] = config.s0
    x = config.x0.copy()
    s = config.s0.copy()
    end, divergence = n_steps + 1, None
    for k in range(n_steps):
        k1x, k1s = deriv(x, s)
        k2x, k2s = deriv(x + half * k1x, s + half * k1s)
        k3x, k3s = deriv(x + half * k2x, s + half * k2s)
        k4x, k4s = deriv(x + dt * k3x, s + dt * k3s)
        x = x + (dt / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        s = s + (dt / 6.0) * (k1s + 2.0 * k2s + 2.0 * k3s + k4s)
        bad = not (np.all(np.isfinite(x)) and np.all(np.isfinite(s)))
        if bad or max(np.abs(x).max(), np.abs(s).max()) > 1e12:
            end, divergence = k + 1, (float(times[k + 1]), k)
            break
        states[k + 1] = x
        reference[k + 1] = s
    times, states, reference = times[:end], states[:end], reference[:end]
    errors = reference[:, None, :] - states
    lyapunov = np.einsum("tia,ab,tib->t", errors, spec.q_matrix.array, errors)
    return (times, states, reference, errors, lyapunov), divergence


def reference_csv(traj, fh):
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


def reference_violations(traj):
    v = traj.lyapunov
    v0 = float(v[0])
    if v0 > 0.0:
        atol, slack = 1e-10 * v0, 1e-9 * v0
    else:
        atol, slack = 1e-20 * max(1.0, float(v.max())), 0.0
    violations = []
    for k in range(len(v) - 1):
        if v[k] > atol and v[k + 1] >= v[k] + slack:
            violations.append(
                (k, float(traj.times[k]), float(traj.times[k + 1]), float(v[k]), float(v[k + 1]))
            )
    return atol, violations


def linear3_config(seed, scale, t_end):
    """n = 3 linear dynamics with non-identity B, K and Q on a random graph."""
    rng = np.random.default_rng(seed)
    n_nodes = int(rng.integers(4, 25))
    q_half = rng.normal(size=(3, 3))
    spec = PinnedSystemSpec(
        graph=erdos_renyi(n_nodes, 0.4, seed=seed),
        sigma=0.7,
        kappa=5.0,
        b_matrix=np.eye(3) + 0.3 * rng.normal(size=(3, 3)),
        k_matrix=5.0 * np.eye(3) + rng.normal(size=(3, 3)),
        q_matrix=SymMatrix(q_half @ q_half.T + np.eye(3)),
        pinned=tuple(int(i) for i in rng.choice(n_nodes, size=2, replace=False)),
        f_bound=1.0,
    )
    dyn = LinearDynamics(scale * rng.normal(size=(3, 3)))
    return SimConfig(spec, dyn, rng.uniform(-1, 1, (n_nodes, 3)), rng.uniform(-1, 1, 3),
                     0.0, t_end, 1e-2)


def scalar1_config(kappa, a, n_nodes=12):
    rng = np.random.default_rng(n_nodes)
    g = erdos_renyi(n_nodes, 0.5, seed=n_nodes)
    spec = scalar_spec(g, 1.0, kappa, (0,) if kappa else (), abs(a) + 0.1)
    return SimConfig(spec, ScalarSaturatedDynamics(a, -0.1), rng.uniform(-1, 1, (n_nodes, 1)),
                     np.array([0.3]), 0.0, 2.0, 1e-2)


# saturated n = 1 on either side of the cutoff: [G | b I] [z; tanh z] at and below it,
# G z + b tanh z above it
CUTOFF_CONFIGS = {
    f"n1-decaying-{rows}-rows": (lambda rows=rows: scalar1_config(40.0, 0.2, n_nodes=rows - 1))
    for rows in (AUGMENTED_MAX_ROWS, AUGMENTED_MAX_ROWS + 1)
}
EQUALITY_CONFIGS = {
    "n1-decaying": lambda: scalar1_config(40.0, 0.2),
    "n1-growing": lambda: scalar1_config(0.0, 1.5),
    "n1-linear": lambda: path3_linear_config(1e-2),
    "n3-linear": lambda: linear3_config(3, 0.3, 3.0),
    "n3-linear-growing": lambda: linear3_config(5, 1.0, 3.0),
    **CUTOFF_CONFIGS,
}
DIVERGING_CONFIGS = {
    "n1-diverging": lambda: scalar1_config(0.0, 20.0),
    "n3-diverging": lambda: linear3_config(7, 3.0, 30.0),
}
ALL_CONFIGS = {**EQUALITY_CONFIGS, **DIVERGING_CONFIGS}


def arrays_of(traj):
    return (traj.times, traj.states, traj.reference, traj.errors, traj.lyapunov)


EPS = np.finfo(float).eps


def stacked(states, reference):
    return np.concatenate([states, reference[:, None, :]], axis=1)


@pytest.mark.parametrize("name", sorted(ALL_CONFIGS))
def test_stacked_rk4_matches_two_array_reference(name):
    # the operator's stages round differently from the per-block formula, so
    # each sample agrees to 8 eps of its largest magnitude, not bit for bit
    config = ALL_CONFIGS[name]()
    expected, divergence = reference_simulate(config)
    traj = simulate(config)
    if name in DIVERGING_CONFIGS:
        assert divergence is not None
        assert (traj.diverged_at, traj.steps) == divergence
    else:
        assert divergence is None and traj.diverged_at is None
    for got, want in zip(arrays_of(traj), expected):
        assert got.shape == want.shape
    assert np.array_equal(traj.times, expected[0])
    got, want = stacked(traj.states, traj.reference), stacked(*expected[1:3])
    scale = np.abs(want).max(axis=(1, 2), keepdims=True)
    assert np.all(np.abs(got - want) <= 8 * EPS * scale)
    # errors and V are read from the samples by the reference's own formulas
    errors = traj.reference[:, None, :] - traj.states
    assert np.array_equal(traj.errors, errors)
    q = config.system.q_matrix.array
    assert np.array_equal(traj.lyapunov, np.einsum("tia,ab,tib->t", errors, q, errors))


def scalar_operator_config(seed, linear, n_nodes=None):
    """n = 1 with scalar B and K away from 1 and two pins on a random graph."""
    rng = np.random.default_rng(seed)
    n_nodes = int(rng.integers(4, 25)) if n_nodes is None else n_nodes
    spec = PinnedSystemSpec(
        graph=erdos_renyi(n_nodes, 0.4, seed=seed), sigma=0.7, kappa=5.0,
        b_matrix=[[1.3]], k_matrix=[[5.2]], q_matrix=SymMatrix([[1.0]]),
        pinned=tuple(int(i) for i in rng.choice(n_nodes, size=2, replace=False)), f_bound=1.0,
    )
    a, b = rng.normal(size=2)
    dyn = LinearDynamics([[a]]) if linear else ScalarSaturatedDynamics(float(a), float(b))
    return SimConfig(spec, dyn, rng.uniform(-1, 1, (n_nodes, 1)), rng.uniform(-1, 1, 1),
                     0.0, 1.0, 1e-2)


OPERATOR_CONFIGS = {
    **{f"n1-{kind}-{seed}": (lambda seed=seed, kind=kind: scalar_operator_config(seed, kind == "linear"))
       for kind in ("linear", "saturated") for seed in range(4)},
    **{f"n3-linear-{seed}": (lambda seed=seed: linear3_config(seed, 1.0, 1.0)) for seed in range(4)},
    "n1-saturated-above-cutoff": lambda: scalar_operator_config(0, False, AUGMENTED_MAX_ROWS),
}


@pytest.mark.parametrize("name", sorted(OPERATOR_CONFIGS))
def test_operator_matches_per_block_formula(name):
    config = OPERATOR_CONFIGS[name]()
    spec, f = config.system, functools.partial(node_f, config.dynamics)
    rng = np.random.default_rng(len(name))
    x, s = rng.uniform(-2, 2, config.x0.shape), rng.uniform(-2, 2, config.s0.shape)
    sigma_l = spec.sigma * laplacian(spec.graph).array
    pin = np.isin(np.arange(len(x)), spec.pinned)[:, None]
    terms = (f(x), (sigma_l @ x) @ spec.b_matrix.T, pin * ((s - x) @ spec.k_matrix.T))
    want = np.vstack([terms[0] - terms[1] + terms[2], f(s)])
    got = np.vstack(derivative_at(config, x, s))
    scale = max(np.abs(np.vstack(terms)).max(), np.abs(x).max(), np.abs(s).max())
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 8 * EPS * scale


@pytest.mark.parametrize("name", sorted(OPERATOR_CONFIGS))
def test_doubled_derivative_is_exactly_twice_the_derivative(name):
    # simulate evaluates RK4 stages 2 and 3 as _derivative(config, 2.0) in place of 2 k
    config = OPERATOR_CONFIGS[name]()
    z = np.random.default_rng(len(name)).uniform(-2, 2, (len(config.x0) + 1, len(config.s0)))
    once, twice = np.empty_like(z), np.empty_like(z)
    _derivative(config)(z, once)
    _derivative(config, 2.0)(z, twice)
    assert np.array_equal(twice, 2 * once)


@pytest.mark.parametrize("name", sorted(ALL_CONFIGS))
def test_csv_matches_nested_loop_reference(name, tmp_path):
    config = ALL_CONFIGS[name]()
    traj = simulate(config)
    write_trajectory_csv(traj, tmp_path / "got.csv")
    with open(tmp_path / "want.csv", "w", newline="") as fh:
        reference_csv(traj, fh)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def hand_trajectory(times, states, errors, lyapunov, diverged_at=None):
    """A Trajectory from given values; the writer does not read reference."""
    states = np.array(states, dtype=float)
    return Trajectory(np.array(times, dtype=float), states, states[:, 0],
                      np.array(errors, dtype=float), np.array(lyapunov, dtype=float), diverged_at)


EDGE_TRAJECTORIES = {
    # signed zero, the smallest subnormal, huge and inf values, long time reprs
    "edge-values": lambda: hand_trajectory(
        [0.0, 0.30000000000000004, 1e300],
        [[[-0.0], [5e-324]], [[1e300], [-5e-324]], [[1.7976931348623157e308], [0.1]]],
        [[[5e-324], [-0.0]], [[-1e300], [2.2250738585072014e-308]], [[0.1 + 0.2], [-1e-300]]],
        [-0.0, 5e-324, math.inf],
    ),
    "zero-step": lambda: hand_trajectory([0.0], [[[1.0], [2.0], [3.0]]],
                                         [[[0.5], [-0.5], [1e-17]]], [1.25], diverged_at=0.01),
    "one-node": lambda: hand_trajectory([0.0, 0.1, 0.2], [[[1.0]], [[0.5]], [[0.25]]],
                                        [[[-1.0]], [[-0.5]], [[-0.25]]], [1.0, 0.25, 0.0625]),
    "n3": lambda: hand_trajectory(
        [1.0, 1.1],
        np.arange(12.0).reshape(2, 2, 3) / 7.0,
        -np.arange(12.0).reshape(2, 2, 3) / 3.0,
        [0.1, 1 / 3],
    ),
}


@pytest.mark.parametrize("name", sorted(EDGE_TRAJECTORIES))
def test_csv_edge_values_match_nested_loop_reference(name, tmp_path):
    traj = EDGE_TRAJECTORIES[name]()
    write_trajectory_csv(traj, tmp_path / "got.csv")
    with open(tmp_path / "want.csv", "w", newline="") as fh:
        reference_csv(traj, fh)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("workers", [1, 2, 3, "past-samples"])
@pytest.mark.parametrize("name", sorted(ALL_CONFIGS) + sorted(EDGE_TRAJECTORIES))
def test_csv_bytes_do_not_depend_on_the_worker_count(name, workers, tmp_path, monkeypatch):
    traj = EDGE_TRAJECTORIES[name]() if name in EDGE_TRAJECTORIES else simulate(ALL_CONFIGS[name]())
    if workers == "past-samples":  # more workers than samples; 4 samples keep the fork count small
        traj = Trajectory(*(a[:4] for a in arrays_of(traj)), traj.diverged_at)
        workers = traj.times.shape[0] + 2
    monkeypatch.setattr(dynamics, "_workers", lambda n_rows: workers)
    write_trajectory_csv(traj, tmp_path / "got.csv")
    assert_no_child_left()
    with open(tmp_path / "want.csv", "w", newline="") as fh:
        reference_csv(traj, fh)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_csv_workers_one_per_cpu_up_to_the_cap(monkeypatch, tmp_path):
    monkeypatch.setattr(dynamics, "CGROUP", tmp_path)  # no CPU quota
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert dynamics._workers(MIN_ROWS_PER_WORKER - 1) == 1
    assert dynamics._workers(3 * MIN_ROWS_PER_WORKER) == min(cpus, MAX_WORKERS, 3)
    assert dynamics._workers(10**9) == min(cpus, MAX_WORKERS)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    assert dynamics._workers(10**9) == MAX_WORKERS  # more CPUs than measured: the cap holds
    monkeypatch.delattr(os, "fork", raising=False)
    assert dynamics._workers(10**9) == 1


@pytest.mark.parametrize("files, cpus", [
    ({"cpu.max": "150000 100000\n"}, 1),
    ({"cpu.max": "50000 100000\n"}, 1),
    ({"cpu.max": "400000 100000\n"}, 4),
    ({"cpu.max": "1600000 100000\n"}, 8),
    ({"cpu.max": "max 100000\n"}, 8),
    ({"cpu/cpu.cfs_quota_us": "200000\n", "cpu/cpu.cfs_period_us": "100000\n"}, 2),
    ({"cpu/cpu.cfs_quota_us": "-1\n", "cpu/cpu.cfs_period_us": "100000\n"}, 8),
    ({"cpu/cpu.cfs_quota_us": "200000\n"}, 8),
    ({}, 8),
])
def test_csv_workers_follow_the_cgroup_cpu_quota(files, cpus, tmp_path, monkeypatch):
    # a quota of 1.5 CPUs on an 8-CPU host is one CPU's time: two ranges would share it
    (tmp_path / "cpu").mkdir()
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    monkeypatch.setattr(dynamics, "CGROUP", tmp_path)
    assert dynamics._quota_cpus(8) == cpus
    if cpus == 1:
        assert dynamics._workers(10**9) == 1


@pytest.mark.skipif(not hasattr(signal, "SIGCHLD"), reason="needs SIGCHLD")
@pytest.mark.parametrize("handler", [signal.SIG_IGN, lambda signum, frame: None])
def test_csv_is_one_range_where_another_reaper_may_run(handler, tmp_path):
    # with SIGCHLD ignored the kernel reaps workers itself, so waiting on one would raise
    # ChildProcessError; a handler may reap them too: the export then forks nothing
    n3 = simulate(ALL_CONFIGS["n3-linear"]())
    reps = -(-2 * MIN_ROWS_PER_WORKER // n3.states.size)
    traj = Trajectory(*(np.concatenate([a] * reps) for a in arrays_of(n3)), None)
    previous = signal.signal(signal.SIGCHLD, handler)
    try:
        assert dynamics._workers(traj.states.size) == 1
        write_trajectory_csv(traj, tmp_path / "got.csv")
    finally:
        signal.signal(signal.SIGCHLD, previous)
    with open(tmp_path / "want.csv", "w", newline="") as fh:
        reference_csv(traj, fh)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_csv_parts_are_made_beside_the_target(tmp_path, monkeypatch):
    traj = simulate(ALL_CONFIGS["n3-linear"]())
    made = []
    temporary_file = tempfile.TemporaryFile

    def spy(*args, **kwargs):
        made.append(kwargs.get("dir"))
        return temporary_file(*args, **kwargs)
    monkeypatch.setattr(tempfile, "TemporaryFile", spy)
    monkeypatch.setattr(dynamics, "_workers", lambda n_rows: 3)
    (tmp_path / "sub").mkdir()
    monkeypatch.chdir(tmp_path)
    write_trajectory_csv(traj, os.path.join("sub", "got.csv"))
    assert made == [str(tmp_path / "sub")] * 2
    assert_no_child_left()


def test_csv_is_one_range_where_no_part_can_be_made(tmp_path, monkeypatch):
    # a target in a directory that takes no new file (a device, a read-only folder) still exports
    traj = simulate(ALL_CONFIGS["n3-linear"]())

    def refuse(*args, **kwargs):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))

    def no_fork():
        raise AssertionError("forked with no part file")
    monkeypatch.setattr(tempfile, "TemporaryFile", refuse)
    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(dynamics, "_workers", lambda n_rows: 3)
    write_trajectory_csv(traj, tmp_path / "got.csv")
    with open(tmp_path / "want.csv", "w", newline="") as fh:
        reference_csv(traj, fh)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def failing_rows(fails):
    """_write_rows that raises for the ranges fails(lo) picks (lo = 0 is the caller's own)."""
    write_rows = dynamics._write_rows

    def rows(fh, traj, lo, hi):
        if fails(lo):
            raise RuntimeError(f"injected failure at sample {lo}")
        write_rows(fh, traj, lo, hi)
    return rows


def test_csv_failure_in_the_callers_range_kills_every_worker(tmp_path, monkeypatch):
    traj = simulate(ALL_CONFIGS["n3-linear"]())
    # a worker that were not killed would sleep far past the time allowed below
    write_rows = failing_rows(lambda lo: lo == 0)
    monkeypatch.setattr(dynamics, "_write_rows",
                        lambda fh, t, lo, hi: time.sleep(60) if lo else write_rows(fh, t, lo, hi))
    monkeypatch.setattr(dynamics, "_workers", lambda n_rows: 3)
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="at sample 0"):
        write_trajectory_csv(traj, tmp_path / "got.csv")
    assert time.monotonic() - start < 30
    assert_no_child_left()


def test_csv_worker_failure_raises_oserror(tmp_path, monkeypatch, capfd):
    traj = simulate(ALL_CONFIGS["n3-linear"]())
    monkeypatch.setattr(dynamics, "_write_rows", failing_rows(lambda lo: lo > 0))
    monkeypatch.setattr(dynamics, "_workers", lambda n_rows: 3)
    with pytest.raises(OSError, match="worker exited with status 255") as raised:
        write_trajectory_csv(traj, tmp_path / "got.csv")
    assert raised.value.errno is None  # not an errno: the failure was no OSError
    assert_no_child_left()
    assert capfd.readouterr() == ("", "")  # the worker prints no traceback and flushes nothing


@pytest.mark.parametrize("code", [errno.ENOSPC, errno.EIO])
def test_csv_worker_oserror_keeps_its_errno(code, tmp_path, monkeypatch):
    traj = simulate(ALL_CONFIGS["n3-linear"]())
    write_rows = dynamics._write_rows

    def rows(fh, t, lo, hi):
        if lo:
            raise OSError(code, os.strerror(code))
        write_rows(fh, t, lo, hi)
    monkeypatch.setattr(dynamics, "_write_rows", rows)
    monkeypatch.setattr(dynamics, "_workers", lambda n_rows: 3)
    with pytest.raises(OSError) as raised:
        write_trajectory_csv(traj, tmp_path / "got.csv")
    assert (raised.value.errno, raised.value.strerror) == (code, os.strerror(code))
    assert_no_child_left()


@pytest.mark.parametrize("name", sorted(ALL_CONFIGS))
def test_check_decay_matches_loop_reference(name):
    config = ALL_CONFIGS[name]()
    traj = simulate(config)
    atol, violations = reference_violations(traj)
    report = check_decay(traj)
    assert report.atol == atol
    assert report.violations == violations
    assert [tuple(map(type, v)) for v in report.violations] == [tuple(map(type, v)) for v in violations]
    assert report.ok == (not violations and name in EQUALITY_CONFIGS)
    if "growing" in name:
        assert violations


# ---------------------------------------------------------------------------
# bit equality with textbook RK4 on the same derivative, guarded every step


def textbook_simulate(config):
    """z + dt/6 (k1 + 2 k2 + 2 k3 + k4) on _derivative, with a fresh array per
    operation and the overflow guard after every step. Returns the Trajectory
    fields (times, states, reference, errors, lyapunov, steps, diverged_at)."""
    deriv = _derivative(config)

    def f(z):
        out = np.empty_like(z)
        deriv(z, out)
        return out

    dt = config.dt
    n_steps = int(round((config.t_end - config.t0) / dt))
    times = config.t0 + dt * np.arange(n_steps + 1)
    z = np.vstack([config.x0, config.s0])
    samples, diverged_at = [z], None
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            k1 = f(z)
            k2 = f(z + dt / 2 * k1)
            k3 = f(z + dt / 2 * k2)
            k4 = f(z + dt * k3)
            z = z + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            if not np.all(np.abs(z) <= 1e12):
                diverged_at = float(times[k + 1])
                break
            samples.append(z)
    samples = np.array(samples)
    states, reference = samples[:, :-1], samples[:, -1]
    errors = reference[:, None, :] - states
    lyapunov = np.einsum("tia,ab,tib->t", errors, config.system.q_matrix.array, errors)
    return times[: len(samples)], states, reference, errors, lyapunov, len(samples) - 1, diverged_at


def rate_scaled(config, c):
    """The same run with every rate (sigma, kappa, K, f) times c and time over c."""
    spec, dyn = config.system, config.dynamics
    spec = dataclasses.replace(spec, sigma=c * spec.sigma, kappa=c * spec.kappa,
                               k_matrix=c * spec.k_matrix, f_bound=c * spec.f_bound)
    dyn = (LinearDynamics(c * dyn.matrix) if dyn.tanh_gain is None
           else ScalarSaturatedDynamics(c * dyn.a, c * dyn.b))
    return SimConfig(spec, dyn, config.x0, config.s0, config.t0 / c, config.t_end / c, config.dt / c)


def state_scaled(config, c):
    return dataclasses.replace(config, x0=c * config.x0, s0=c * config.s0)


BIT_CONFIGS = {
    **ALL_CONFIGS,
    **{f"{name}-rates-2^{e}": (lambda name=name, e=e: rate_scaled(ALL_CONFIGS[name](), 2.0**e))
       for name in ("n1-decaying", "n1-linear", "n3-linear", "n3-diverging", *CUTOFF_CONFIGS)
       for e in (-100, 100)},
    **{f"{name}-states-2^-100": (lambda name=name: state_scaled(ALL_CONFIGS[name](), 2.0**-100))
       for name in ("n1-decaying", "n1-linear", "n3-linear", *CUTOFF_CONFIGS)},
}


def assert_matches_textbook(traj, config):
    *arrays, steps, diverged_at = textbook_simulate(config)
    for got, want in zip(arrays_of(traj), arrays):
        assert np.array_equal(got, want)
    assert (traj.steps, traj.diverged_at) == (steps, diverged_at)


@pytest.mark.parametrize("name", sorted(BIT_CONFIGS))
def test_simulate_is_textbook_rk4_bit_for_bit(name):
    config = BIT_CONFIGS[name]()
    assert_matches_textbook(simulate(config), config)


def growth_config(n_steps, first_over, rate):
    """One free node with x' = rate x, started so that sample first_over is the
    first whose magnitude exceeds the overflow guard, by sqrt(r) either side."""
    h, dt = 0.5 * rate, 0.5
    r = 1 + h + h**2 / 2 + h**3 / 6 + h**4 / 24  # RK4's amplification per step
    x0 = OVERFLOW_GUARD * r ** (0.5 - first_over)
    spec = scalar_spec(Graph(1), 1.0, 0.0, (), rate)
    return SimConfig(spec, LinearDynamics([[rate]]), [[x0]], [0.0], 0.0, n_steps * dt, dt)


@pytest.mark.parametrize("n_steps, first_over, rate", [
    (200, 1, 1.0), (200, 63, 1.0), (200, 64, 1.0), (200, 65, 1.0), (200, 129, 1.0),
    # r = 1.2e5: the steps run on past the first offender reach inf and 0 inf = NaN
    (200, 1, 80.0),
    (100, 100, 1.0), (128, 128, 1.0),  # at the last step, off and on a check boundary
    (10, 7, 1.0), (10, 10, 1.0),  # in a run shorter than one check block
])
def test_divergence_is_cut_at_the_first_offending_step(n_steps, first_over, rate):
    config = growth_config(n_steps, first_over, rate)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = simulate(config)
    assert traj.steps == first_over - 1
    assert traj.diverged_at == first_over * config.dt
    assert_matches_textbook(traj, config)
