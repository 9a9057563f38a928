"""Property tests for Poly/RatFun: ring laws, the pseudo-remainder and
exact-division contracts, the primitive-PRS gcd and
Bezout certificate against naive Euclids over Fractions, uniqueness of the
canonical form ``RatFun.lowest()`` reduces to, the coefficient types (every
Poly coefficient an int; series values int where integral, Fraction
otherwise, never float), rationals entering through RatFun, a gcd-free constructor
and field operations whose lowest terms equal the full-cross-product
reference, equality with scalars, ``agrees_from`` against the
subtract-and-reduce rule it replaced, the gcd-free one-sided shift against
a gcd-normalised reference, and the GF memo."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
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
    integral,
    poly_gcd,
    prem,
    series_coeffs,
    shift_series,
    shifted_gf,
)

props = settings(deadline=None, max_examples=60)

ints = st.integers(-12, 12)
coeffs = st.one_of(ints, ints, st.fractions(-6, 6, max_denominator=5))
rational_lists = st.lists(coeffs, max_size=5)  # enter through RatFun, never Poly
polys = st.lists(ints, max_size=5).map(Poly)
nonzero_polys = polys.filter(lambda p: not p.is_zero())
nonzero_scalars = st.one_of(ints, st.fractions(-6, 6, max_denominator=5)).filter(bool)


def all_int(p: Poly) -> bool:
    return all(type(c) is int for c in p.coeffs)


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


def _trim(x: list) -> list:
    while x and x[-1] == 0:
        x.pop()
    return x


def _fmul(x: list, y: list) -> list:
    out = [Fraction(0)] * max(len(x) + len(y) - 1, 0)
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            out[i + j] += a * b
    return _trim(out)


def _fsub(x: list, y: list) -> list:
    n = max(len(x), len(y))
    return _trim([(x[k] if k < len(x) else 0) - (y[k] if k < len(y) else 0) for k in range(n)])


def _fdivmod(x: list, y: list):
    """Long division of Fraction lists by the leading term of y."""
    rem, quo = list(x), [Fraction(0)] * max(len(x) - len(y) + 1, 0)
    for k in reversed(range(len(quo))):
        c = quo[k] = rem[k + len(y) - 1] / y[-1]
        for j, b in enumerate(y):
            rem[k + j] -= c * b
    return _trim(quo), _trim(rem)


def naive_bezout(a: Poly, b: Poly):
    """Extended Euclid over Fractions, as bezout once ran: the remainder
    sequence by long division with one cofactor, g = the last remainder made
    primitive and u reduced mod b/g.  Returns (u as a Fraction list, g)."""
    if a.is_zero() and b.is_zero():
        raise ValueError("bezout of two zero polynomials")
    r0, r1 = [Fraction(c) for c in a.coeffs], [Fraction(c) for c in b.coeffs]
    u0, u1 = [Fraction(1)], []
    while r1:
        q, r = _fdivmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, _fsub(u0, _fmul(q, u1))
    g = integral(r0)[0].primitive()
    low = g.valuation()
    u = _fmul(u0, [g.coeffs[low] / r0[low]])
    bq = _fdivmod([Fraction(c) for c in b.coeffs], [Fraction(c) for c in g.coeffs])[0]
    if len(bq) > 1:
        u = _fdivmod(u, bq)[1]
    return u, g


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
def test_prem_reconstructs(a, b):
    """prem's contract: b divides s*a - r, and deg r < deg b."""
    s, r = prem(a, b)
    q = (a * s - r) // b
    assert s != 0 and q * b + r == a * s
    assert r.degree < b.degree


@props
@given(polys, nonzero_polys)
def test_exact_division_raises_on_a_non_divisor(a, b):
    assert (a * b) // b == a
    q, r = _fdivmod([Fraction(c) for c in a.coeffs], [Fraction(c) for c in b.coeffs])
    if r or any(c.denominator != 1 for c in q):  # no quotient over the integers
        with pytest.raises(ValueError, match="does not divide"):
            a // b
    else:
        assert (a // b).coeffs == tuple(int(c) for c in q)


@props
@given(polys, polys, polys)
def test_gcd_divides_both_and_matches_naive_euclid(a, b, common):
    a, b = a * common, b * common
    g = poly_gcd(a, b)
    assert g == naive_gcd(a, b)
    if not g.is_zero():
        assert not (prem(a, g)[1] or prem(b, g)[1])
        if not common.is_zero():
            assert not prem(g, common.primitive())[1]


@props
@given(polys, polys)
def test_bezout_certificate(a, b):
    if a.is_zero() and b.is_zero():
        return
    s, c, g = bezout(a, b)
    assert g == poly_gcd(a, b) and type(c) is int and c != 0
    if b.is_zero():
        assert s * a == g * c
    else:
        assert not prem(s * a - g * c, b)[1]
        assert s.degree < b.degree - g.degree


@st.composite
def bezout_operands(draw):
    """Integral a, b, not both zero; often with a planted common factor,
    with one dividing the other, or with one of them zero."""
    a, b, common = draw(polys), draw(polys), draw(nonzero_polys)
    shape = draw(st.sampled_from(["plain", "common", "a|b", "b|a", "a=0", "b=0"]))
    if shape == "common":
        a, b = a * common, b * common
    elif shape == "a|b":
        b = a * b
    elif shape == "b|a":
        a = a * b
    elif shape == "a=0":
        a = Poly()
    elif shape == "b=0":
        b = Poly()
    assume(not (a.is_zero() and b.is_zero()))
    return a, b


@settings(deadline=None, max_examples=200)
@given(bezout_operands())
def test_bezout_equals_the_fraction_euclid(ab):
    a, b = ab
    s, c, g = bezout(a, b)
    u, want_g = naive_bezout(a, b)
    assert [Fraction(x, c) for x in s.coeffs] == u and g.coeffs == want_g.coeffs


@props
@given(polys, nonzero_polys, nonzero_scalars)
def test_canonical_form_is_scale_invariant(a, b, k):
    """k may be a Fraction: the scaled lists enter through RatFun."""
    scaled = RatFun([c * k for c in a.coeffs], [c * k for c in b.coeffs])
    assert lowest(scaled) == lowest(RatFun(a, b))


@props
@given(polys, nonzero_polys, nonzero_polys)
def test_canonical_form_cancels_common_factors(a, b, c):
    assert lowest(RatFun(a * c, b * c)) == lowest(RatFun(a, b))


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
@given(polys, polys, nonzero_polys, nonzero_scalars, rational_lists, rational_lists)
def test_every_poly_coefficient_is_an_int(a, b, c, k, rs, ts):
    results = [a + b, a - b, a * b, a * c.degree, a.derivative(), a.primitive(),
               poly_gcd(a, b), prem(a, c)[1], (a * c) // c]
    if not (a.is_zero() and b.is_zero()):
        s, _, g = bezout(a, b)
        results += [s, g]
    f = RatFun(a, c)
    results += [f.num, f.den, (f + RatFun(b, c)).num, (f * k).num, (f * k).den]
    results += [RatFun(k).num, RatFun(k).den, integral(rs)[0]]
    if any(ts):
        r = RatFun(rs, ts)
        results += [r.num, r.den, (r * k).den, (r + k).num]
    for p in results:
        assert all_int(p), p.coeffs
    if c[0] != 0:
        assert well_typed(series_coeffs(RatFun(a, c), 8))
        assert well_typed(series_coeffs(RatFun(rs, c), 8))


@props
@given(rational_lists, rational_lists.filter(any), nonzero_scalars)
def test_rationals_enter_through_ratfun_exactly(rs, ts, k):
    """integral(x) = (P, L) with x = P/L; RatFun of lists and scalars is
    their quotient, and a scalar p/q scales num by p and den by q."""
    p, den = integral(rs)
    assert all_int(p) and den == math.lcm(*(Fraction(c).denominator for c in rs))
    assert [Fraction(c, den) for c in p.coeffs] + [0] * (len(rs) - len(p.coeffs)) == rs
    f = RatFun(rs, ts)
    assert f * RatFun(ts) == RatFun(rs) and RatFun(k) == k
    assert f * k == RatFun([c * k for c in rs], ts)
    g = RatFun(Poly((1, 1)), Poly((1, -1))) * k
    assert g.num == Poly((1, 1)) * k.numerator and g.den == Poly((1, -1)) * k.denominator


def test_poly_times_a_non_int_is_a_type_error():
    for other in (Fraction(1, 2), Fraction(3), "a", 1.5, None):
        with pytest.raises(TypeError):
            Poly((1,)) * other
        with pytest.raises(TypeError):
            other * Poly((1, 2))


@props
@given(polys, polys)
def test_integer_inputs_stay_integer(a, b):
    for p in (a + b, a * b, a - b, poly_gcd(a, b)):
        assert all(type(x) is int for x in p.coeffs)


# -- gcd-free arithmetic against the full cross product ---------------------------


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


def lowest(f: RatFun) -> tuple:
    """f's lowest terms, as ``RatFun.lowest`` reduces them."""
    return canonical(f.lowest())


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
    assert lowest(f + g) == canonical(ref_add(f, g))
    assert lowest(f - g) == canonical(ref_sub(f, g))
    assert lowest(f * g) == canonical(ref_mul(f, g))
    assert lowest(-f) == reference(-f.num, f.den)
    assert lowest(f.substitute_neg()) == reference(f.num.substitute_neg(),
                                                   f.den.substitute_neg())
    if not g.is_zero():
        assert lowest(f / g) == canonical(ref_div(f, g))
    f, g = f.lowest(), g.lowest()  # integral operands give integral results
    for p in (f + g).num, (f * g).den:
        assert all(type(x) is int for x in p.coeffs)


@props
@given(operand_pairs(), nonzero_scalars, nonzero_polys)
def test_mixed_operands_equal_the_cross_product_reference(pair, k, p):
    f, _ = pair
    for other in (k, p):
        assert lowest(f + other) == canonical(ref_add(f, other))
        assert lowest(f - other) == canonical(ref_sub(f, other))
        assert lowest(f * other) == canonical(ref_mul(f, other))
        assert lowest(f / other) == canonical(ref_div(f, other))
    assert lowest(k - f) == canonical(ref_sub(k, f))
    assert lowest(k * f) == canonical(ref_mul(k, f))
    if not f.is_zero():
        assert lowest(k / f) == canonical(ref_div(k, f))


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
                assert lowest(g) == lowest(e), ident.id
            else:
                assert isinstance(g, ex.NotCompilable), ident.id


@props
@given(operand_pairs(), nonzero_scalars, nonzero_polys)
def test_field_operations_take_no_gcd(pair, k, h):
    f, g = pair
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(series_algebra, "poly_gcd", lambda a, b: calls.append((a, b)))
        results = [f + g, f - g, f * g, f * k, -f, f.substitute_neg(), f + k, k - f]
        results += [f / g] if not g.is_zero() else []
        results += [k / f] if not f.is_zero() else []
        num, den = h * f.num, h * f.den
        built = RatFun(num, den)
    assert calls == [] and all(isinstance(r, RatFun) for r in results)
    assert built.num is num and built.den is den


@props
@given(operand_pairs(), nonzero_polys, nonzero_scalars)
def test_a_common_factor_changes_neither_equality_nor_hash(pair, h, k):
    f, g = pair
    unreduced = RatFun(h * f.num, h * f.den)
    assert unreduced == f and f == unreduced and hash(unreduced) == hash(f)
    assert str(unreduced) == str(f)
    assert (unreduced == g) == (f == g)
    constant = RatFun([c * k for c in h.coeffs], h)  # a scalar compares and hashes as its value
    assert constant == k and k == constant and hash(constant) == hash(k)
    assert f - f == 0 and 0 == f - f and (f == k) == (f == RatFun(k))


def old_agrees_from(f: RatFun, g: RatFun, n0: int) -> bool:
    """The rule ``agrees_from`` replaced, kept as the reference: equal
    canonical forms, or f - g reduced to lowest terms is a polynomial of
    degree < n0."""
    f, g = f.lowest(), g.lowest()
    if canonical(f) == canonical(g):
        return True
    diff = RatFun(f.num * g.den - g.num * f.den, f.den * g.den).lowest()
    return diff.den.degree == 0 and diff.num.degree < n0


@st.composite
def agreement_pairs(draw):
    """(f, g, n0): g is f plus a polynomial of degree n0 - 1 or n0 (or
    zero, or a random other function), and either side may carry an
    uncancelled common factor."""
    n0 = draw(st.integers(0, 4))
    f, other = draw(operand_pairs())
    kind = draw(st.sampled_from(["n0 - 1", "n0", "zero", "other"]))
    if kind == "other":
        g = other
    else:
        degree = n0 - 1 if kind == "n0 - 1" else n0
        cs = draw(st.lists(coeffs, min_size=degree + 1, max_size=degree + 1))
        if cs:
            cs[-1] = cs[-1] or 1
        g = f + RatFun(cs)
    h = draw(nonzero_polys)
    if draw(st.booleans()):
        g = RatFun(h * g.num, h * g.den)
    return f, g, n0


@settings(deadline=None, max_examples=200)
@given(agreement_pairs())
def test_agrees_from_equals_the_subtract_and_reduce_rule(case):
    f, g, n0 = case
    assert series_algebra.agrees_from(f, g, n0) == old_agrees_from(f, g, n0)
    assert series_algebra.agrees_from(g, f, n0) == old_agrees_from(g, f, n0)


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
    assert canonical(gf_of(spec)) == lowest(old_gf_of(spec))


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
    lambda nd: RatFun(*nd).lowest())
shifts = st.integers(-8, 8)


def ref_shift(f: RatFun, s: int) -> RatFun:
    """n -> f_{n+s}, one-sided, normalised through RatFun.lowest()'s gcd:
    x^-s f for s <= 0, (f - f_0 - ... - f_{s-1} x^(s-1)) / x^s for s > 0."""
    if s <= 0:
        return RatFun(f.num * Poly((0,) * -s + (1,)), f.den).lowest()
    return ((f - RatFun(series_coeffs(f, s))) / RatFun(Poly((0,) * s + (1,)))).lowest()


@props
@given(power_series, shifts)
def test_shift_series_equals_the_gcd_normalised_reference(f, s):
    got = shift_series(f, s)
    # the denominators of the cleared prefix scale den: den' = L*D
    assert got.den == f.den * integral(series_coeffs(f, max(s, 0)))[1]
    assert lowest(got) == canonical(ref_shift(f, s))
    assert poly_gcd(got.num, got.den).degree == 0  # lowest terms up to a scalar, as f is
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
    assert lowest(got) == canonical(ref_shift(f, s))


@props
@given(polys, nonzero_polys, shifts)
def test_shift_series_rejects_a_pole_at_zero(num, den, s):
    f = RatFun(num, den.shift(1))
    if f.den[0] == 0:
        with pytest.raises(NotAPowerSeries):
            shift_series(f, s)
