import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pinnet import (
    ArrowMatrix,
    BoundKind,
    DegenerateGapError,
    NotPSDError,
    PreconditionError,
    SymMatrix,
    ValidationError,
    assemble_arrow,
    eig_sym,
    incidence,
    lambda_min_gt0,
    laplacian,
    lili_lower_max,
    lili_upper_max,
    mathias_lower,
    path_graph,
    smallest_nonzero_lower,
    weyl_lower,
)


def random_arrow(rng, d):
    m = rng.standard_normal((d, d))
    arr = ArrowMatrix(float(rng.standard_normal()), rng.standard_normal(d), SymMatrix((m + m.T) / 2))
    return arr


def random_psd_arrow(rng, d):
    """Gram arrow of a random factor; rank of the block is the factor's row count."""
    rows = int(rng.integers(1, d + 1))
    big_x = rng.standard_normal((rows, d))
    x = rng.standard_normal(rows)
    return assemble_arrow(x, big_x)


def test_assemble_arrow_direct_products():
    arr = assemble_arrow(np.array([1.0, 0.0]), np.eye(2))
    assert arr.c == 1.0
    assert np.allclose(arr.a, [1.0, 0.0])
    assert np.allclose(arr.m.array, np.eye(2))


def test_assemble_arrow_zero_border():
    big_x = np.array([[1.0, 2.0], [0.0, 1.0]])
    arr = assemble_arrow(np.zeros(2), big_x)
    assert arr.c == 0.0
    assert np.allclose(arr.a, 0.0)
    lam1_m = eig_sym(arr.m).eigenvalues[0]
    lam1_a = eig_sym(arr.materialize()).eigenvalues[0]
    assert lam1_a == pytest.approx(lam1_m, abs=1e-12)


def test_assemble_arrow_pinned_laplacian_factor():
    # column sqrt(kappa) e_0 appended to sqrt(sigma) I for the 3-path
    g = path_graph(3)
    sigma, kappa = 1.0, 4.0
    inc = math.sqrt(sigma) * incidence(g).entries.astype(float)
    x = np.zeros(3)
    x[0] = math.sqrt(kappa)
    arr = assemble_arrow(x, inc)
    assert arr.c == pytest.approx(kappa)
    pinned = sigma * laplacian(g).array + kappa * np.diag([1.0, 0.0, 0.0])
    w_pinned = np.sort(eig_sym(SymMatrix(pinned)).eigenvalues)
    w_arrow = np.sort(eig_sym(arr.materialize()).eigenvalues)
    # 3x3 pinned matrix is PD, arrow is 3x3 too: spectra agree outright
    assert np.abs(w_pinned - w_arrow).max() <= 1e-9


def test_assemble_arrow_dim_mismatch():
    with pytest.raises(ValidationError):
        assemble_arrow(np.zeros(3), np.eye(2))


def test_arrow_border_must_match_the_block():
    with pytest.raises(ValidationError, match="border length 3 does not match block dimension 2"):
        ArrowMatrix(1.0, np.ones(3), SymMatrix(np.eye(2)))


def test_lili_upper_tight_2x2():
    rep = lili_upper_max(ArrowMatrix(1.0, [1.0], SymMatrix([[1.0]])))
    assert rep.bound_value == pytest.approx(2.0, abs=1e-12)
    assert rep.exact_value == pytest.approx(2.0, abs=1e-12)
    assert rep.bound_kind is BoundKind.LILI_UPPER_MAX


def test_lili_upper_zero_border_exact():
    rep = lili_upper_max(ArrowMatrix(5.0, [0.0, 0.0], SymMatrix(np.diag([2.0, 1.0]))))
    assert rep.bound_value == pytest.approx(5.0, abs=1e-12)
    assert rep.exact_value == pytest.approx(5.0, abs=1e-12)
    assert rep.slack == pytest.approx(0.0, abs=1e-12)


def test_lili_upper_random_valid():
    rng = np.random.default_rng(42)
    for _ in range(30):
        rep = lili_upper_max(random_arrow(rng, 5))
        assert rep.bound_value >= rep.exact_value - 1e-10


def test_lili_lower_tight_2x2():
    rep = lili_lower_max(ArrowMatrix(1.0, [1.0], SymMatrix([[1.0]])))
    assert rep.bound_value == pytest.approx(2.0, abs=1e-12)
    assert rep.exact_value == pytest.approx(2.0, abs=1e-12)


def test_lili_lower_orthogonal_border():
    rep = lili_lower_max(ArrowMatrix(0.0, [0.0, 1.0], SymMatrix(np.diag([2.0, 1.0]))))
    assert rep.bound_value == pytest.approx(2.0, abs=1e-12)
    assert rep.exact_value >= 2.0 - 1e-12


def test_lili_sandwich_random():
    rng = np.random.default_rng(99)
    for _ in range(30):
        arr = random_arrow(rng, 5)
        lo = lili_lower_max(arr)
        hi = lili_upper_max(arr)
        assert lo.bound_value <= lo.exact_value + 1e-10
        assert hi.bound_value >= hi.exact_value - 1e-10
        assert lo.exact_value == pytest.approx(hi.exact_value, abs=1e-12)


def test_smallest_nonzero_block_diagonal():
    rep = smallest_nonzero_lower(ArrowMatrix(5.0, [0.0, 0.0], SymMatrix(np.diag([2.0, 0.0]))))
    assert rep.bound_value == pytest.approx(2.0, abs=1e-12)
    assert rep.exact_value == pytest.approx(2.0, abs=1e-12)


def test_smallest_nonzero_tight_2x2():
    rep = smallest_nonzero_lower(ArrowMatrix(1.0, [1.0], SymMatrix([[1.0]])))
    assert rep.bound_value == pytest.approx(0.0, abs=1e-12)
    assert rep.exact_value == pytest.approx(0.0, abs=1e-12)


def test_smallest_nonzero_pinned_laplacian():
    g = path_graph(3)
    sigma, kappa = 1.0, 4.0
    x = np.zeros(3)
    x[0] = math.sqrt(kappa)
    arr = assemble_arrow(x, math.sqrt(sigma) * incidence(g).entries.astype(float))
    rep = smallest_nonzero_lower(arr)  # rank of M inferred: 2 for a connected 3-path
    exact = lambda_min_gt0(SymMatrix(laplacian(g).array + kappa * np.diag([1.0, 0, 0])))
    assert rep.exact_value == pytest.approx(exact, abs=1e-9)
    assert rep.bound_value <= exact + 1e-9


def test_weyl_cases():
    rep = weyl_lower(ArrowMatrix(5.0, [0.0, 0.0], SymMatrix(np.diag([2.0, 0.0]))))
    assert rep.bound_value == pytest.approx(2.0, abs=1e-12)
    rep = weyl_lower(ArrowMatrix(1.0, [1.0], SymMatrix([[1.0]])))
    assert rep.bound_value == pytest.approx(0.0, abs=1e-12)
    assert rep.exact_value == pytest.approx(0.0, abs=1e-12)


def test_mathias_cases():
    rep = mathias_lower(ArrowMatrix(5.0, [0.0], SymMatrix([[2.0]])))
    assert rep.bound_value == pytest.approx(2.0, abs=1e-12)
    rep = mathias_lower(ArrowMatrix(9.0, [2.0], SymMatrix([[1.0]])))
    assert rep.bound_value == pytest.approx(0.5, abs=1e-12)
    assert rep.exact_value == pytest.approx(5.0 - math.sqrt(20.0), abs=1e-12)
    assert rep.bound_value <= rep.exact_value
    with pytest.raises(DegenerateGapError):
        mathias_lower(ArrowMatrix(1.0, [1.0], SymMatrix([[1.0]])))


@pytest.mark.parametrize("c", [1.0, 1e-6, 1e-13, 2.0**-60])
def test_mathias_gap_is_judged_relative_to_the_arrow(c):
    # the gap |2.5c - 2c| = 0.5c is half of c, so no scale makes it degenerate
    arr = ArrowMatrix(2.5 * c, c * np.array([0.3, 0.2, 0.0]),
                      SymMatrix(c * np.diag([3.0, 2.0, 0.0])))
    rep = mathias_lower(arr)
    assert rep.bound_value == pytest.approx(1.74 * c, rel=1e-12)
    assert rep.bound_value <= rep.exact_value


def test_rank_cross_check_and_psd_guard():
    with pytest.raises(NotPSDError):
        smallest_nonzero_lower(ArrowMatrix(1.0, [0.0], SymMatrix([[-1.0]])))
    with pytest.raises(PreconditionError):
        smallest_nonzero_lower(ArrowMatrix(1.0, [0.0], SymMatrix([[0.0]])))


@pytest.mark.parametrize("block", [[[-1.0]], [[0.0]], [[2.0, 0.0], [0.0, -3.0]]])
@pytest.mark.parametrize("bound", [smallest_nonzero_lower, weyl_lower, mathias_lower])
def test_rank_errors_match_lambda_min_gt0(bound, block):
    m = SymMatrix(block)
    with pytest.raises(PreconditionError) as want:
        lambda_min_gt0(m)
    with pytest.raises(PreconditionError) as got:
        bound(ArrowMatrix(1.0, np.zeros(m.dim), m))
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


entries = st.floats(-5.0, 5.0)


def _floats(draw, count):
    return np.array(draw(st.lists(entries, min_size=count, max_size=count)))


@st.composite
def symmetric_arrows(draw):
    d = draw(st.integers(1, 6))
    m = _floats(draw, d * d).reshape(d, d)
    return ArrowMatrix(draw(entries), _floats(draw, d), SymMatrix((m + m.T) / 2))


@st.composite
def gram_arrows(draw):
    """Gram arrow of a generated factor [x, X]; the block is PSD."""
    d = draw(st.integers(1, 6))
    rows = draw(st.integers(1, d))
    return assemble_arrow(_floats(draw, rows), _floats(draw, rows * d).reshape(rows, d))


@settings(max_examples=80, deadline=None)
@given(symmetric_arrows())
def test_arrow_sandwich_property(arr):
    # lili_lower_max <= lambda_1 <= lili_upper_max on any symmetric arrow
    lo = lili_lower_max(arr)
    up = lili_upper_max(arr)
    tol = 1e-8 * (1.0 + abs(lo.exact_value))
    assert lo.bound_value <= lo.exact_value + tol
    assert up.exact_value <= up.bound_value + tol


@settings(max_examples=80, deadline=None)
@given(gram_arrows())
def test_lower_chain_property(arr):
    # weyl <= lili <= lambda_{r+1} whenever the block has a nonzero rank
    try:
        lili = smallest_nonzero_lower(arr)
    except PreconditionError:
        assume(False)
    wy = weyl_lower(arr)
    tol = 1e-8 * (1.0 + abs(lili.exact_value))
    assert wy.bound_value <= lili.bound_value + tol
    assert lili.bound_value <= lili.exact_value + tol


def test_lower_bound_dominance_psd():
    rng = np.random.default_rng(2024)
    for _ in range(40):
        arr = random_psd_arrow(rng, 6)
        lili = smallest_nonzero_lower(arr)
        wy = weyl_lower(arr)
        tol = 1e-8 * (1.0 + abs(lili.exact_value))
        assert wy.bound_value <= lili.bound_value + tol
        assert lili.bound_value <= lili.exact_value + tol
        try:
            ma = mathias_lower(arr)
            assert ma.bound_value <= lili.bound_value + tol
            assert ma.bound_value <= ma.exact_value + tol
        except DegenerateGapError:
            pass


def test_a1_a2_equivalence():
    rng = np.random.default_rng(77)
    for _ in range(15):
        d = int(rng.integers(2, 7))
        n = int(rng.integers(1, 7))
        x = rng.standard_normal(d)
        big_x = rng.standard_normal((d, n))
        arr = assemble_arrow(x, big_x)
        w_arrow = eig_sym(arr.materialize()).eigenvalues
        w_outer = eig_sym(SymMatrix(np.outer(x, x) + big_x @ big_x.T)).eigenvalues
        scale = 1.0 + abs(max(w_arrow[0], w_outer[0]))
        nz_arrow = np.sort(w_arrow[np.abs(w_arrow) > 1e-8 * scale])
        nz_outer = np.sort(w_outer[np.abs(w_outer) > 1e-8 * scale])
        assert nz_arrow.shape == nz_outer.shape
        if nz_arrow.size:
            assert np.abs(nz_arrow - nz_outer).max() <= 1e-8 * scale
        assert w_arrow[0] == pytest.approx(w_outer[0], abs=1e-8 * scale)


def test_tightness_at_zero_gap():
    # eta_1 = 0: both Li-Li terms equal the corresponding |<a, .>| exactly
    m = SymMatrix(np.diag([2.0, 1.0]))
    a = np.array([0.6, 0.8])
    arr = ArrowMatrix(2.0, a, m)
    up = lili_upper_max(arr)
    lo = lili_lower_max(arr)
    assert up.bound_value == pytest.approx(2.0 + np.linalg.norm(a), abs=1e-12)
    v1 = eig_sym(m).eigenvectors[:, 0]
    assert lo.bound_value == pytest.approx(2.0 + abs(a @ v1), abs=1e-12)


def test_tightness_as_border_vanishes():
    m = SymMatrix(np.diag([3.0, 1.0]))
    gaps = []
    for scale in [1.0, 0.1, 0.01, 0.001]:
        arr = ArrowMatrix(1.0, scale * np.array([0.5, 0.5]), m)
        gaps.append(lili_upper_max(arr).bound_value - lili_lower_max(arr).bound_value)
    assert all(g >= -1e-14 for g in gaps)
    assert gaps[-1] < 1e-5
    assert gaps == sorted(gaps, reverse=True)
