"""Scale invariance: the controllability question has no units.

Scaling sigma, kappa, K = kappa B and f_bound by one factor c scales sigma L
+ kappa P, the certificate and rhs_threshold alike, so no verdict, flag or
pick may change. With c a power of two the scaling is exact in floating
point, so every quantity computed by arithmetic, or read from an
eigensolve, is exactly c times its c = 1 value. The values-only solve reads
the same matrix at every c, because eig_values divides it by its own power
of two first.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from pinnet import PinnetError, degree_select, evaluate, exhaustive_select, greedy_select

from helpers import graphs, scalar_spec

SCALED = ("sigma_lambda", "rhs_threshold", "iterative_bound", "kappa_threshold",
          "exact_lambda", "exact_lambda_min")


def outcome(select, *args):
    """The result, or the class of the error it raised."""
    try:
        return select(*args)
    except PinnetError as exc:
        return type(exc)


@settings(max_examples=60, deadline=None)
@given(
    g=graphs(),
    data=st.data(),
    sigma=st.sampled_from([0.5, 1.0, 2.0]),
    kappa=st.sampled_from([0.0, 0.7, 3.0, 40.0]),
    f_bound=st.sampled_from([0.0, 0.05, 0.4]),
)
def test_scaling_every_gain_by_c_scales_every_answer_by_c(g, data, sigma, kappa, f_bound):
    n = g.num_nodes
    pinned = tuple(data.draw(st.lists(st.integers(0, n - 1), unique=True)))
    unit = evaluate(scalar_spec(g, sigma, kappa, pinned, f_bound))
    for c in (2.0**-100, 2.0**-30, 2.0**30, 2.0**100):
        rep = evaluate(scalar_spec(g, c * sigma, c * kappa, pinned, c * f_bound))
        for key in ("verdict_theorem", "verdict_exact", "structural_ok", "flags"):
            assert getattr(rep, key) == getattr(unit, key), (c, key)
        assert rep.reasons.keys() == unit.reasons.keys(), c
        for key in SCALED:
            value = getattr(unit, key)
            assert getattr(rep, key) == (None if value is None else c * value), (c, key)

    budget = data.draw(st.integers(0, n))
    for select in (greedy_select, degree_select, exhaustive_select):
        expected = outcome(select, g, sigma, kappa, budget)
        for c in (2.0**-30, 2.0**30):
            got = outcome(select, g, c * sigma, c * kappa, budget)
            if isinstance(expected, type):
                assert got is expected, (select.__name__, c)
            else:
                assert (got.pinned, got.evaluations) == (expected.pinned, expected.evaluations)
                assert got.objective == c * expected.objective, (select.__name__, c)
