"""Property tests for the expression evaluator: on random trees inside the
rational fragment, ``evaluate_range`` equals the Taylor coefficients of the
compiled generating function, and every integral value is an int."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from mstep import expressions as ex
from mstep.series_algebra import series_coeffs

LENGTH = 30

shifts = st.integers(-3, 3)
scalars = st.one_of(st.integers(-4, 4), st.fractions(-3, 3, max_denominator=2))

terms = st.builds(ex.Term, st.sampled_from(["F", "T", "Q", "pell", "jacobsthal"]), shifts)
npolys = st.lists(scalars, min_size=1, max_size=3).map(lambda cs: ex.npoly(*cs))
consts = scalars.map(ex.const)
alts = shifts.map(ex.alt)
# a pointwise product compiles when at most one factor is not one of these
pointwise_scalars = st.one_of(consts, alts, npolys)
leaves = st.one_of(terms, terms, npolys, consts, alts, shifts.map(ex.geo2))


def _extend(children):
    return st.one_of(
        st.lists(children, min_size=2, max_size=3).map(lambda ts: ex.Sum(tuple(ts))),
        st.builds(ex.Scale, scalars.filter(bool), children),
        st.builds(lambda fs, base: ex.Product((*fs, base)),
                  st.lists(pointwise_scalars, min_size=1, max_size=2), children),
        st.builds(lambda ks, c: ex.ConvAtom(tuple(ks), c),
                  st.lists(children, min_size=1, max_size=3), shifts),
    )


trees = st.recursive(leaves, _extend, max_leaves=5)


@settings(deadline=None, max_examples=80)
@given(trees)
def test_evaluate_range_is_the_series_of_the_gf(e):
    values = ex.evaluate_range(e, LENGTH)
    assert values == series_coeffs(ex.gf_of_expr(e), LENGTH)
    assert all(type(v) is int or (type(v) is Fraction and v.denominator != 1) for v in values)
