"""Property tests for the exact fast paths against the loops they replace:
the slice-wise convolution step against the per-coefficient loop, the
monic-division shortcut of ``series_divide`` against the loop that divides
every coefficient, and the monomial shortcut and the image modulo
p = 2^61 - 1 of ``poly_gcd``, proved by exact division, against the full
primitive PRS.  Results must be equal and of the same type: an int stays an
int and a Fraction is never integral."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mstep import expressions as ex
from mstep import series_algebra
from mstep.series_algebra import (
    _P,
    P_ONE,
    Poly,
    _coeff,
    _div,
    integral,
    prem,
    poly_gcd,
    series_divide,
)

props = settings(deadline=None, max_examples=200)


def old_series_divide(num, den, count):
    """The loop that divides every coefficient by den(0)."""
    d0 = den[0]
    tail = [(k, dk) for k, dk in enumerate(den.coeffs) if k and dk]
    out = []
    for n in range(count):
        acc = num[n] if n < len(num) else 0
        for k, dk in tail:
            if k > n:
                break
            acc -= dk * out[n - k]
        out.append(_div(acc, d0))
    return out


def old_convolve(a, b, den):
    """(a*E)/den with E = den*b, one coefficient at a time."""
    length = len(a)
    dens = [(i, d) for i, d in enumerate(den.coeffs) if d]
    e = []
    for k in range(length):
        ek = _coeff(sum(d * b[k - i] for i, d in dens if i <= k))
        if ek:
            e.append((k, ek))
    num = []
    for n in range(length):
        acc = 0
        for k, ek in e:
            if k > n:
                break
            acc += ek * a[n - k]
        num.append(acc)
    return old_series_divide(num, den, length)


def prs_gcd(a, b):
    """The primitive PRS with no monomial shortcut."""
    a, b = a.primitive(), b.primitive()
    if a.degree < b.degree:
        a, b = b, a
    while not b.is_zero():
        a, b = b, prem(a, b)[1].primitive()
    return a


def same(got, want) -> bool:
    return got == want and [type(v) for v in got] == [type(v) for v in want]


ints = st.integers(-10**6, 10**6)
fractions = st.fractions(-50, 50, max_denominator=7)
# a column is all ints or mixes in Fractions
columns = st.one_of(st.lists(ints, max_size=6), st.lists(st.one_of(ints, fractions), max_size=6))
small = st.integers(-5, 5)  # a denominator is a Poly, so its coefficients are ints


@st.composite
def denominators(draw):
    """D(0) in {1, 2, -3} or D = 1; the rest sparse (mostly zero) or dense."""
    d0 = draw(st.sampled_from([1, 1, 2, -3]))
    if draw(st.booleans()):
        return P_ONE
    fill = st.one_of(st.just(0), st.just(0), small) if draw(st.booleans()) else small
    return Poly((d0, *draw(st.lists(fill, max_size=8))))


@props
@given(columns, denominators(), st.integers(0, 30))
def test_series_divide_equals_the_per_coefficient_division(num, den, count):
    assert same(series_divide(num, den, count), old_series_divide(num, den, count))


@st.composite
def convolution_inputs(draw):
    length = draw(st.integers(1, 20))
    entries = ints if draw(st.booleans()) else st.one_of(ints, fractions)
    column = st.lists(entries, min_size=length, max_size=length)
    den = draw(denominators())
    if draw(st.booleans()):
        # den annihilates b: E = den*b has finite support, the linear-time case
        b = series_divide(draw(st.lists(entries, max_size=6)), den, length)
    else:
        b = draw(column)
    return draw(column), b, den


@settings(deadline=None, max_examples=100)
@given(convolution_inputs())
def test_slice_wise_convolution_equals_the_per_coefficient_loop(inputs):
    a, b, den = inputs
    assert same(ex._convolve(a, b, den), old_convolve(a, b, den))


coeffs = st.one_of(st.integers(-12, 12), st.fractions(-6, 6, max_denominator=5))
# rational lists with their denominators cleared, the one way rationals enter a Poly
polys = st.lists(coeffs, max_size=6).map(lambda cs: integral(cs)[0])
# c*x^k with c of either sign; k = 0 is a constant
monomials = st.builds(lambda c, k: Poly((0,) * k + (c,)),
                      st.integers(-9, 9).filter(bool), st.integers(0, 6))
operands = st.one_of(monomials, polys, st.just(Poly()))


@props
@given(monomials, operands, st.booleans())
def test_monomial_gcd_equals_the_full_prs(m, other, swap):
    a, b = (other, m) if swap else (m, other)
    got = poly_gcd(a, b)
    assert got == prs_gcd(a, b)
    assert all(type(c) is int for c in got.coeffs)


# integer coefficients, small or far above p, so reductions modulo p matter
int_polys = st.lists(st.one_of(st.integers(-9, 9), st.integers(-2**70, 2**70)),
                     min_size=2, max_size=7).map(Poly)


@props
@given(st.one_of(polys, int_polys), st.one_of(polys, int_polys),
       st.one_of(st.just(P_ONE), int_polys))
def test_gcd_equals_the_prs_with_and_without_shared_factors(a, b, common):
    a, b = a * common, b * common
    assert poly_gcd(a, b) == prs_gcd(a, b)


def _refuse_prs(a, b, w):
    raise AssertionError("the PRS ran")


# nonzero, dense or not; a factor's coefficients lie in +-9, or far above p
digits = st.lists(st.integers(-9, 9), min_size=1, max_size=6).filter(any).map(Poly)
huge = st.builds(lambda m, neg: -m if neg else m, st.integers(2**61, 2**90), st.booleans())
huge_polys = st.lists(st.one_of(huge, st.integers(-9, 9)), min_size=2, max_size=6) \
    .filter(lambda cs: cs[-1]).map(Poly)


@props
@given(digits, digits, digits)
def test_gcd_of_small_planted_factors_is_the_lifted_image(f, g, common):
    """Coefficients in +-9: the gcd lifts from its image modulo p with room
    to spare, and p is lucky for every example drawn, so the image answers
    alone, with no PRS."""
    a, b = f * common, g * common
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(series_algebra, "_prs", _refuse_prs)
        got = poly_gcd(a, b)
    assert got == prs_gcd(a, b)


@props
@given(digits, digits, huge_polys)
def test_gcd_of_planted_factors_above_p_equals_the_prs(f, g, common):
    """A planted factor with coefficients above 2^61 does not, as a rule,
    lift from its image modulo p, so the PRS answers; the result must be
    the PRS's either way."""
    a, b = f * common, g * common
    assert poly_gcd(a, b) == prs_gcd(a, b)


def _dense(rng, degree):
    return Poly([rng.randint(1, 9) for _ in range(degree + 1)])


def test_dense_coprime_gcd_is_certified_modulo_p(monkeypatch):
    """Degree 400, digits 1-9: the certificate answers without the PRS."""
    rng = random.Random(400)
    a, b = _dense(rng, 400), _dense(rng, 399)
    monkeypatch.setattr(series_algebra, "_prs", _refuse_prs)
    assert poly_gcd(a, b) is P_ONE


def test_dense_gcd_with_a_shared_factor_is_the_lifted_image(monkeypatch):
    """p*c against q*c, p and q dense of degree 495 and c of degree 5, digits
    1-9: the lifted image divides both, so no PRS runs."""
    rng = random.Random(495)
    common = _dense(rng, 5)
    a, b = _dense(rng, 495) * common, _dense(rng, 495) * common
    monkeypatch.setattr(series_algebra, "_prs", _refuse_prs)
    assert poly_gcd(a, b) == common.primitive()


def _counting_prs(monkeypatch):
    calls = []
    prs = series_algebra._prs

    def spy(a, b, w):
        calls.append((a, b))
        return prs(a, b, w)

    monkeypatch.setattr(series_algebra, "_prs", spy)
    return calls


@pytest.mark.parametrize("a, b, want, prs", [
    # lead(a) = p: modulo p, a and b drop to x + 1 and x + 2, coprime there,
    # while over Z they share p*x + 1; the image must not be used
    (Poly((1, _P)) * Poly((1, 1)), Poly((1, _P)) * Poly((2, 1)), Poly((1, _P)), True),
    (Poly((1, 0, _P)), Poly((3, 1)), P_ONE, True),
    # coprime over Z, equal modulo p: the image has degree 1 and fails exact
    # division (x alone is a monomial, answered x^min(1, val(x + p)) = 1
    # before either runs)
    (Poly((0, 1)), Poly((_P, 1)), P_ONE, False),
    (Poly((1, 1)), Poly((1 + _P, 1)), P_ONE, True),
    (Poly((1, 0, 1)), Poly((1 + _P, 0, 1)), P_ONE, True),
    # gcd x + 1, but the image (x + 1)(x + 2) has too high a degree: it
    # divides a, not b
    (Poly((1, 1)) * Poly((2, 1)), Poly((1, 1)) * Poly((2 + _P, 1)), Poly((1, 1)), True),
], ids=["shared-factor-lead-p", "coprime-lead-p", "x-and-x-plus-p",
        "x-plus-1-and-x-plus-1-plus-p", "quadratic-plus-p", "image-degree-too-high"])
def test_unlucky_prime_operands_fall_back_to_the_prs(monkeypatch, a, b, want, prs):
    calls = _counting_prs(monkeypatch)
    assert poly_gcd(a, b) == want == prs_gcd(a, b)
    assert bool(calls) == prs
