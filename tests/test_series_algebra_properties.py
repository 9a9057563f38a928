"""Property tests for Poly/RatFun: ring laws, the primitive-PRS gcd against a
naive Euclid over Fractions, uniqueness of the canonical form, the coefficient
types (int where integral, Fraction otherwise, never float), Henrici-reduced
field operations against the full-cross-product reference, the gcd-free
one-sided shift against a gcd-normalised reference, and the GF memo."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mstep import expressions as ex
from mstep import identity_catalog as catalog
from mstep import series_algebra
from mstep.sequences import RecurrenceSpec, handle, registry
from mstep.series_algebra import (
    NotAPowerSeries,
    Poly,
    RatFun,
    _as_ratfun,
    bezout,
    gf_of,
    poly_gcd,
    series_coeffs,
    shift_series,
    shifted_gf,
)

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


# -- Henrici arithmetic against the full cross product ---------------------------


def reference(num: Poly, den: Poly) -> tuple:
    """Canonical (num, den) coefficient tuples the long way: one poly_gcd of
    the whole pair, then integral coefficients, joint content 1 and a positive
    lowest denominator coefficient."""
    if num.is_zero():
        return (), (1,)
    g = poly_gcd(num, den)
    num, den = num // g, den // g
    cs = [Fraction(c) for c in num.coeffs + den.coeffs]
    lcm = math.lcm(*(c.denominator for c in cs))
    cs = [int(c * lcm) for c in cs]
    content = math.gcd(*cs)
    split = len(num.coeffs)
    if next(c for c in cs[split:] if c) < 0:
        content = -content
    cs = [c // content for c in cs]
    return tuple(cs[:split]), tuple(cs[split:])


def ref_ratfun(num: Poly, den: Poly) -> RatFun:
    """A RatFun holding reference(num, den), built without RatFun's own code."""
    n, d = reference(num, den)
    out = object.__new__(RatFun)
    object.__setattr__(out, "num", Poly(n))
    object.__setattr__(out, "den", Poly(d))
    return out


def ref_add(f, g):
    f, g = _as_ratfun(f), _as_ratfun(g)
    return ref_ratfun(f.num * g.den + g.num * f.den, f.den * g.den)


def ref_sub(f, g):
    f, g = _as_ratfun(f), _as_ratfun(g)
    return ref_ratfun(f.num * g.den - g.num * f.den, f.den * g.den)


def ref_mul(f, g):
    f, g = _as_ratfun(f), _as_ratfun(g)
    return ref_ratfun(f.num * g.num, f.den * g.den)


def ref_div(f, g):
    f, g = _as_ratfun(f), _as_ratfun(g)
    return ref_ratfun(f.num * g.den, f.den * g.num)


def canonical(f: RatFun) -> tuple:
    return f.num.coeffs, f.den.coeffs


@st.composite
def operand_pairs(draw):
    """Two RatFuns built so that their parts often share a factor: each of
    a, b, c, d in a/b and c/d may take on one common factor, d may equal b,
    and small lists give zero and constants."""
    common = draw(nonzero_polys)
    a, c = draw(polys), draw(polys)
    b, d = draw(nonzero_polys), draw(nonzero_polys)
    a, b, c, d = (p * common if draw(st.booleans()) else p for p in (a, b, c, d))
    if draw(st.booleans()):
        d = b
    return RatFun(a, b), RatFun(c, d)


@props
@given(operand_pairs())
def test_field_operations_equal_the_cross_product_reference(pair):
    f, g = pair
    assert canonical(f + g) == canonical(ref_add(f, g))
    assert canonical(f - g) == canonical(ref_sub(f, g))
    assert canonical(f * g) == canonical(ref_mul(f, g))
    assert canonical(-f) == reference(-f.num, f.den)
    assert canonical(f.substitute_neg()) == reference(f.num.substitute_neg(),
                                                      f.den.substitute_neg())
    if not g.is_zero():
        assert canonical(f / g) == canonical(ref_div(f, g))
    for p in (f + g).num, (f * g).den:
        assert all(type(x) is int for x in p.coeffs)


@props
@given(operand_pairs(), nonzero_scalars, nonzero_polys)
def test_mixed_operands_equal_the_cross_product_reference(pair, k, p):
    f, _ = pair
    for other in (k, p):
        assert canonical(f + other) == canonical(ref_add(f, other))
        assert canonical(f - other) == canonical(ref_sub(f, other))
        assert canonical(f * other) == canonical(ref_mul(f, other))
        assert canonical(f / other) == canonical(ref_div(f, other))
    assert canonical(k - f) == canonical(ref_sub(k, f))
    assert canonical(k * f) == canonical(ref_mul(k, f))
    if not f.is_zero():
        assert canonical(k / f) == canonical(ref_div(k, f))


_REFERENCE_OPS = {
    "__add__": ref_add, "__radd__": ref_add, "__sub__": ref_sub,
    "__rsub__": lambda f, g: ref_sub(g, f), "__mul__": ref_mul, "__rmul__": ref_mul,
    "__truediv__": ref_div, "__rtruediv__": lambda f, g: ref_div(g, f),
    "__neg__": lambda f: ref_ratfun(-f.num, f.den),
    "substitute_neg": lambda f: ref_ratfun(f.num.substitute_neg(), f.den.substitute_neg()),
}


def test_catalog_gfs_equal_the_cross_product_reference(monkeypatch):
    """Both sides of every catalog entry, as gfcheck prints them."""
    idents = catalog.load_manifest()
    with monkeypatch.context() as mp:
        for name, op in _REFERENCE_OPS.items():
            mp.setattr(RatFun, name, op)
        ex.clear_caches()
        expected = [catalog.identity_gfs(i) for i in idents]
    ex.clear_caches()
    for ident, sides in zip(idents, expected):
        got = catalog.identity_gfs(ident)
        assert [str(s) for s in got] == [str(s) for s in sides], ident.id
        for g, e in zip(got, sides):
            if isinstance(e, RatFun):
                assert canonical(g) == canonical(e), ident.id
            else:
                assert isinstance(g, ex.NotCompilable), ident.id


# -- the generating-function memo ------------------------------------------------


@st.composite
def recurrences(draw):
    order = draw(st.integers(1, 4))
    lower = draw(st.lists(st.integers(-3, 3), min_size=order - 1, max_size=order - 1))
    top = draw(st.integers(-3, 3).filter(bool))
    seeds = draw(st.lists(st.integers(-5, 5), min_size=order, max_size=order + 2))
    return RecurrenceSpec("r", order, (*lower, top), tuple(seeds))


@props
@given(recurrences(), st.integers(-4, 6))
def test_memoised_gfs_equal_fresh_ones(spec, shift):
    first = gf_of(spec), shifted_gf(spec, shift)
    assert gf_of(spec) is first[0] and shifted_gf(spec, shift) is first[1]
    ex.clear_caches()
    fresh = gf_of(spec), shifted_gf(spec, shift)
    assert fresh == first and fresh[0] is not first[0]
    h = handle(spec)
    assert series_coeffs(fresh[0], 12) == h.values(12)
    assert series_coeffs(fresh[1], 12) == [h.term(n + shift) for n in range(12)]


def old_gf_of(spec) -> RatFun:
    """The GF with its numerator built term by term, as gf_of once did:
    num[n] = seed_n - sum_j c_j seed_{n-j} for n < len(seeds)."""
    seeds = spec.seeds
    num = []
    for n, a in enumerate(seeds):
        acc = a
        for j, c in enumerate(spec.coeffs, start=1):
            if c and n - j >= 0:
                acc -= c * seeds[n - j]
        num.append(acc)
    return RatFun(Poly(num), Poly([1] + [-c for c in spec.coeffs]))


@props
@given(recurrences())
def test_gf_of_equals_the_term_by_term_numerator(spec):
    ex.clear_caches()
    assert canonical(gf_of(spec)) == canonical(old_gf_of(spec))


@props
@given(recurrences(), st.integers(-8, 8))
def test_shifted_gfs_keep_the_gf_denominator(spec, shift):
    assert shifted_gf(spec, shift).den == gf_of(spec).den


def test_registry_shifted_gfs_keep_the_gf_denominator():
    for spec in registry().values():
        for shift in range(-8, 9):
            assert shifted_gf(spec, shift).den == gf_of(spec).den, (spec.name, shift)


# -- the one-sided shift -------------------------------------------------------------


power_series = st.tuples(polys, nonzero_polys.filter(lambda d: d[0] != 0)).map(
    lambda nd: RatFun(*nd))
shifts = st.integers(-8, 8)


def ref_shift(f: RatFun, s: int) -> RatFun:
    """n -> f_{n+s}, one-sided, normalised through RatFun(...)'s gcd:
    x^-s f for s <= 0, (f - f_0 - ... - f_{s-1} x^(s-1)) / x^s for s > 0."""
    if s <= 0:
        return RatFun(f.num * Poly((0,) * -s + (1,)), f.den)
    prefix = Poly(series_coeffs(f, s))
    return RatFun(f.num - prefix * f.den, f.den * Poly((0,) * s + (1,)))


@props
@given(power_series, shifts)
def test_shift_series_equals_the_gcd_normalised_reference(f, s):
    got = shift_series(f, s)
    assert canonical(got) == canonical(ref_shift(f, s))
    series = series_coeffs(f, 12 + max(s, 0))
    want = [series[n + s] if n + s >= 0 else 0 for n in range(12)]
    assert series_coeffs(got, 12) == want


@props
@given(power_series, shifts)
def test_shift_series_takes_no_gcd(f, s):
    def refuse(a, b):
        raise AssertionError("poly_gcd called")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(series_algebra, "poly_gcd", refuse)
        got = shift_series(f, s)
    assert canonical(got) == canonical(ref_shift(f, s))


@props
@given(polys, nonzero_polys, shifts)
def test_shift_series_rejects_a_pole_at_zero(num, den, s):
    f = RatFun(num, den.shift(1))
    if f.den[0] == 0:
        with pytest.raises(NotAPowerSeries):
            shift_series(f, s)
