"""Property tests for Poly/RatFun: ring laws, the primitive-PRS gcd against a
naive Euclid over Fractions, uniqueness of the canonical form, and the
coefficient types (int where integral, Fraction otherwise, never float)."""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from mstep.series_algebra import Poly, RatFun, bezout, poly_gcd, series_coeffs

props = settings(deadline=None, max_examples=60)

ints = st.integers(-12, 12)
coeffs = st.one_of(ints, ints, st.fractions(-6, 6, max_denominator=5))
polys = st.lists(coeffs, max_size=5).map(Poly)
nonzero_polys = polys.filter(lambda p: not p.is_zero())
int_polys = st.lists(ints, max_size=5).map(Poly)
nonzero_scalars = st.one_of(ints, st.fractions(-6, 6, max_denominator=5)).filter(bool)


def well_typed(cs) -> bool:
    return all(
        type(c) is int or (type(c) is Fraction and c.denominator != 1) for c in cs
    )


def naive_gcd(a: Poly, b: Poly) -> Poly:
    """Euclid on plain lists of Fractions, normalized like poly_gcd: integral,
    content 1, lowest nonzero coefficient positive."""
    x = [Fraction(c) for c in a.coeffs]
    y = [Fraction(c) for c in b.coeffs]
    while y:
        while len(x) >= len(y):
            q = x[-1] / y[-1]
            off = len(x) - len(y)
            for j, c in enumerate(y):
                x[off + j] -= q * c
            x.pop()
            while x and x[-1] == 0:
                x.pop()
        x, y = y, x
    if not x:
        return Poly()
    den = math.lcm(*(c.denominator for c in x))
    ints_ = [int(c * den) for c in x]
    g = math.gcd(*ints_)
    if next(c for c in ints_ if c) < 0:
        g = -g
    return Poly([c // g for c in ints_])


@props
@given(polys, polys, polys)
def test_ring_laws(a, b, c):
    zero, one = Poly(), Poly((1,))
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a and a - a == zero
    assert -(-a) == a


@props
@given(polys, nonzero_polys)
def test_divmod_reconstructs(a, b):
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.degree < b.degree


@props
@given(polys, polys, polys)
def test_gcd_divides_both_and_matches_naive_euclid(a, b, common):
    a, b = a * common, b * common
    g = poly_gcd(a, b)
    assert g == naive_gcd(a, b)
    if not g.is_zero():
        assert (a % g).is_zero() and (b % g).is_zero()
        if not common.is_zero():
            assert (g % common.primitive()).is_zero()


@props
@given(polys, polys)
def test_bezout_certificate(a, b):
    if a.is_zero() and b.is_zero():
        return
    u, v, g = bezout(a, b)
    assert u * a + v * b == g == poly_gcd(a, b)


@props
@given(polys, nonzero_polys, nonzero_scalars)
def test_canonical_form_is_scale_invariant(a, b, k):
    assert RatFun(a * k, b * k) == RatFun(a, b)


@props
@given(polys, nonzero_polys, nonzero_polys)
def test_canonical_form_cancels_common_factors(a, b, c):
    assert RatFun(a * c, b * c) == RatFun(a, b)


@props
@given(polys, nonzero_polys, polys, nonzero_polys)
def test_equality_is_cross_multiplication(a, b, c, d):
    assert (RatFun(a, b) == RatFun(c, d)) == (a * d == c * b)


@props
@given(polys, nonzero_polys, polys, nonzero_polys)
def test_field_round_trips(a, b, c, d):
    f, g = RatFun(a, b), RatFun(c, d)
    assert (f + g) - g == f
    if not g.is_zero():
        assert (f * g) / g == f


@props
@given(polys, polys, nonzero_polys, nonzero_scalars)
def test_no_float_coefficients(a, b, c, k):
    results = [a + b, a - b, a * b, a * k, a.derivative(), a.primitive(), poly_gcd(a, b)]
    results += list(divmod(a, c))
    if not (a.is_zero() and b.is_zero()):
        results += list(bezout(a, b))
    f = RatFun(a, c)
    results += [f.num, f.den, (f + RatFun(b, c)).num, (f * k).den]
    for p in results:
        assert well_typed(p.coeffs), p.coeffs
    if c[0] != 0:
        assert well_typed(series_coeffs(RatFun(a, c), 8))


@props
@given(int_polys, int_polys)
def test_integer_inputs_stay_integer(a, b):
    for p in (a + b, a * b, a - b, poly_gcd(a, b)):
        assert all(type(x) is int for x in p.coeffs)
