import numpy as np
import pytest

from pinnet import (
    NoNonzeroEigenvalueError,
    NotPSDError,
    NumericalError,
    PreconditionError,
    SymMatrix,
    ValidationError,
    complete_graph,
    cycle_graph,
    disjoint_union,
    eig_sym,
    eig_values,
    erdos_renyi,
    evaluate_pinning,
    greedy_select,
    lambda_max,
    lambda_min,
    lambda_min_gt0,
    laplacian,
    path_graph,
    pinned_operator,
    spectral_norm,
)
from pinnet.bounds import _numerical_rank
from pinnet.criteria import _zero_modes

from helpers import break_eigh, break_eigvalsh, no_convergence, scalar_spec


def charpoly_roots_3x3(m):
    """Independent oracle: roots of the characteristic polynomial, with
    coefficients from trace, principal minors, and an LU determinant."""
    m = np.asarray(m, dtype=float)
    tr = m.trace()
    minors = (
        m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        + m[0, 0] * m[2, 2] - m[0, 2] * m[2, 0]
        + m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1]
    )
    det = np.linalg.det(m)
    roots = np.roots([1.0, -tr, minors, -det])
    return np.sort(roots.real)[::-1]


def test_eig_diag():
    spec = eig_sym(SymMatrix(np.diag([3.0, 1.0, 2.0])))
    assert np.allclose(spec.eigenvalues, [3, 2, 1], atol=1e-12)


def test_eig_exchange_matrix():
    spec = eig_sym(SymMatrix([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(spec.eigenvalues, [1, -1], atol=1e-12)
    # eigenvectors are fixed up to sign: compare the projectors v v^T
    for k, v in enumerate(([1.0, 1.0], [1.0, -1.0])):
        col = spec.eigenvectors[:, k]
        assert np.allclose(np.outer(col, col), np.outer(v, v) / 2, atol=1e-12)


def test_eig_random_3x3_vs_charpoly_oracle():
    rng = np.random.default_rng(7)
    for _ in range(25):
        m = rng.standard_normal((3, 3))
        m = (m + m.T) / 2
        w = eig_sym(SymMatrix(m)).eigenvalues
        expected = charpoly_roots_3x3(m)
        assert np.abs(w - expected).max() <= 1e-8 * max(1.0, abs(w[0]))


def test_eig_roundtrip_reconstruction():
    rng = np.random.default_rng(11)
    for d in [1, 2, 5, 17, 50]:
        m = rng.standard_normal((d, d))
        m = (m + m.T) / 2
        spec = eig_sym(SymMatrix(m))
        rebuilt = spec.eigenvectors @ np.diag(spec.eigenvalues) @ spec.eigenvectors.T
        tol = 1e-8 * (1.0 + abs(spec.eigenvalues[0]))
        assert np.abs(rebuilt - (m + m.T) / 2).max() <= tol
        # orthonormality
        assert np.abs(spec.eigenvectors.T @ spec.eigenvectors - np.eye(d)).max() <= 1e-9


def test_eig_sorted_descending():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((8, 8))
    m = (m + m.T) / 2
    spec = eig_sym(SymMatrix(m))
    assert np.all(np.diff(spec.eigenvalues) <= 1e-14)


def test_eig_deterministic():
    m = np.arange(16, dtype=float).reshape(4, 4)
    m = (m + m.T) / 2
    a = eig_sym(SymMatrix(m))
    b = eig_sym(SymMatrix(m))
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.eigenvectors, b.eigenvectors)


def test_symmetrize_and_reject():
    m = SymMatrix([[1.0, 1.0 + 1e-14], [1.0, 2.0]])
    assert m.array[0, 1] == m.array[1, 0]
    with pytest.raises(ValidationError):
        SymMatrix([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValidationError):
        SymMatrix(np.zeros((2, 3)))


@pytest.mark.parametrize("c", [1.0, 1e-13, 1e-200])
def test_asymmetry_is_judged_relative_to_the_entries(c):
    with pytest.raises(ValidationError, match="not symmetric"):
        SymMatrix(c * np.array([[1.0, 1.0], [0.0, 1.0]]))
    near = SymMatrix(c * np.array([[1.0, 1.0 + 1e-14], [1.0, 1.0]]))
    assert near.array[0, 1] == near.array[1, 0]


def test_empty_matrix_is_rejected():
    with pytest.raises(ValidationError, match="nonempty"):
        SymMatrix(np.zeros((0, 0)))
    with pytest.raises(ValidationError, match="nonempty"):
        spectral_norm([])


def test_exactly_symmetric_input_is_stored_as_is():
    m = np.random.default_rng(2).standard_normal((6, 6))
    m = m + m.T
    stored = SymMatrix(m).array
    assert stored.tobytes() == m.tobytes() == ((m + m.T) / 2).tobytes()
    assert not stored.flags.writeable
    with pytest.raises(ValidationError):
        SymMatrix([[1.0, np.inf], [np.inf, 1.0]])


def test_symmetrize_near_overflow_stays_finite():
    # (M + M^T) / 2 overflows to inf above about 9e307
    exact = SymMatrix([[1e308, 0.0], [0.0, 1.0]])
    assert exact.array[0, 0] == 1e308
    assert eig_sym(exact).eigenvalues.tolist() == [1e308, 1.0]
    assert eig_values(exact).tolist() == [1e308, 1.0]
    near = SymMatrix([[1.7e308, 1.7e308], [1.7e308 * (1 + 1e-14), 1.0]])
    assert np.isfinite(near.array).all()
    assert near.array[0, 1] == near.array[1, 0] == 0.5 * 1.7e308 + 0.5 * 1.7e308 * (1 + 1e-14)


def test_eig_values_match_the_vector_solve():
    rng = np.random.default_rng(13)
    for d in [1, 2, 9, 60, 200]:
        m = rng.standard_normal((d, d))
        w = eig_values(SymMatrix(m + m.T))
        assert np.all(np.diff(w) <= 0)
        full = eig_sym(SymMatrix(m + m.T)).eigenvalues
        assert np.abs(w - full).max() <= 1e-12 * (1.0 + np.abs(full).max())


@pytest.mark.parametrize("solve", [eig_values, lambda_min, lambda_max])
def test_values_only_guard_catches_a_shifted_eigenvalue(monkeypatch, solve):
    op = pinned_operator(path_graph(5), 1.0, 2.0, (0,))
    break_eigvalsh(monkeypatch)
    with pytest.raises(NumericalError, match="trace or Frobenius"):
        solve(op)


def test_values_only_guard_reaches_every_eigenvalue_quantity(monkeypatch):
    break_eigvalsh(monkeypatch)
    with pytest.raises(NumericalError):
        spectral_norm([[3.0, 1.0], [0.0, 2.0]])
    with pytest.raises(NumericalError):
        scalar_spec(path_graph(3), 1.0, 2.0, (0,), 0.1)  # Q's definiteness check
    # greedy screens with the vector solve, but reads its objective from this one
    with pytest.raises(NumericalError):
        greedy_select(cycle_graph(6), 1.0, 3.0, 2)


def test_residual_guard_catches_a_bad_eigenvector(monkeypatch):
    g = erdos_renyi(12, 0.4, seed=1)
    op = pinned_operator(g, 1.0, 3.0, (0, 5))
    expected = eig_values(op)
    break_eigh(monkeypatch)
    with pytest.raises(NumericalError, match="residual"):
        eig_sym(op)
    with pytest.raises(NumericalError):
        greedy_select(g, 1.0, 3.0, 2)  # its screen reads eigenvectors
    # quantities that read no eigenvector never reach eigh, selection's objective included
    assert eig_values(op).tolist() == expected.tolist()
    assert evaluate_pinning(g, 1.0, 3.0, (0, 5)) == expected[-1]


def test_solver_failure_is_a_numerical_error(monkeypatch):
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, no_convergence)
    with pytest.raises(NumericalError, match="did not converge"):
        eig_values(np.eye(2))
    with pytest.raises(NumericalError, match="did not converge"):
        eig_sym(np.eye(2))


def test_lambda_min_gt0_complete_graph():
    for n in [4, 7]:
        assert lambda_min_gt0(eig_values(laplacian(complete_graph(n))), 1) == pytest.approx(n, rel=1e-12)


def test_lambda_min_gt0_path3():
    assert lambda_min_gt0(eig_values(laplacian(path_graph(3))), 1) == pytest.approx(1.0, rel=1e-12)


def test_lambda_min_gt0_zero_matrix():
    # an undefined lambda_min>0 is a precondition outcome, not a solver failure
    with pytest.raises(NoNonzeroEigenvalueError) as exc:
        lambda_min_gt0(eig_values(SymMatrix(np.zeros((3, 3)))), 3)
    assert isinstance(exc.value, PreconditionError)
    assert not isinstance(exc.value, NumericalError)


@pytest.mark.parametrize("c", [2.0**-100, 1.0, 2.0**100])
def test_rank_tolerance_scales_with_the_matrix(c):
    # the arrow bounds' rank rule, pinnet's one zero decided by tolerance
    w = c * np.array([4.0, 1.0, 1e-12, 0.0])
    assert w[_numerical_rank(w) - 1] == c
    with pytest.raises(NotPSDError):
        _numerical_rank(c * np.array([1.0, -1e-8]))


def test_lambda_min_gt0_not_psd():
    # no tolerance: past the zeros the structure counts, the eigenvalue is
    # returned as read, whatever its sign
    assert lambda_min_gt0(np.array([1.0, -1.0]), 0) == -1.0
    assert lambda_min_gt0(np.array([1.0, -1e-300, 0.0]), 1) == -1e-300


def test_disconnected_zero_eigenvalue_count():
    # one zero per component, at kappa = 0 and wherever a component has no pin
    g = disjoint_union(path_graph(3), path_graph(2))
    g = disjoint_union(g, complete_graph(4))
    assert _zero_modes(g, 0.0, ()) == _zero_modes(g, 0.0, (0, 3, 5)) == 3
    assert _zero_modes(g, 2.0, (0, 1)) == 2
    assert _zero_modes(g, 2.0, (0, 3, 5)) == 0
    w = eig_sym(laplacian(g)).eigenvalues
    assert np.abs(w[-3:]).max() <= 1e-12 * w[0]
    assert lambda_min_gt0(w, 3) == pytest.approx(1.0, rel=1e-12)


def test_lambda_min_max():
    assert lambda_min(SymMatrix(np.eye(4))) == pytest.approx(1.0)
    assert lambda_max(SymMatrix(np.eye(4))) == pytest.approx(1.0)
    assert lambda_min(SymMatrix(np.diag([-2.0, 5.0]))) == pytest.approx(-2.0)
    assert lambda_max(SymMatrix(np.diag([-2.0, 5.0]))) == pytest.approx(5.0)
    L = laplacian(path_graph(3))
    assert abs(lambda_min(L)) <= 1e-9
    assert lambda_max(L) == pytest.approx(3.0, rel=1e-12)


def test_spectral_norm_cases():
    assert spectral_norm(np.eye(3)) == pytest.approx(1.0)
    assert spectral_norm([[0.0, 2.0], [0.0, 0.0]]) == pytest.approx(2.0)
    assert spectral_norm(np.array([[3.0], [4.0]])) == pytest.approx(5.0)
    # the Gram of 1e200 overflows and the Gram of 1e-200 underflows to zero
    assert spectral_norm([[1e200]]) == 1e200
    assert spectral_norm([[1e-200]]) == 1e-200
    assert spectral_norm(np.array([[3e200], [4e200]])) == pytest.approx(5e200, rel=1e-15)
    assert spectral_norm(np.zeros((2, 3))) == 0.0


def test_spectral_norm_transpose_invariant():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = rng.standard_normal((rng.integers(1, 7), rng.integers(1, 7)))
        assert spectral_norm(a) == pytest.approx(spectral_norm(a.T), rel=1e-12)
