import ast
import random
from fractions import Fraction

import pytest

from mstep import expressions as ex, series_algebra
from mstep.closed_form_solver import solve_conv_multi
from mstep.sequences import RecurrenceSpec, handle, make_mstep, registry
from mstep.series_algebra import (
    NotAPowerSeries,
    P_ONE,
    Poly,
    RatFun,
    agrees_from,
    bezout,
    gf_of,
    poly_gcd,
    prem,
    series_coeffs,
    shifted_gf,
)


def P(*coeffs):
    return Poly(coeffs)


def test_gcd_of_adjacent_mstep_denominators_is_one():
    assert poly_gcd(P(1, -1, -1), P(1, -1, -1, -1)) == P_ONE


def test_derivative():
    assert P(1, -2, 0, 1).derivative() == P(-2, 0, 3)


def test_prem_against_reconstruction():
    s, r = prem(P(0, 0, 1), P(1, -1, -1))
    assert s == -1 and r == P(-1, 1)  # lead -1 scales the one step by -1
    assert (P(0, 0, 1) * s - r) // P(1, -1, -1) * P(1, -1, -1) + r == P(0, 0, 1) * s
    s, r = prem(P(0, 0, 1), P(1, 0, 2))  # lead 2: 2*x^2 = -1 (mod 1 + 2x^2)
    assert s == 2 and r == P(-1)


def test_prem_random_reconstruction():
    rng = random.Random(7)
    for _ in range(120):
        a = Poly([rng.randint(-5, 5) for _ in range(rng.randint(0, 9))])
        b = Poly([rng.randint(-5, 5) for _ in range(rng.randint(1, 6))])
        if b.is_zero():
            continue
        s, r = prem(a, b)
        q = (a * s - r) // b  # b divides s*a - r: exact division raises otherwise
        assert s != 0 and q * b + r == a * s
        assert r.degree < b.degree


def test_exact_division_raises_on_a_non_divisor():
    assert P(2, 2) // P(1, 1) == P(2) and P(0, 0, 3) // P(0, 1) == P(0, 3)
    assert Poly() // P(3, 1) == Poly()
    for a, b in ((P(1, 2), P(1, 1)), (P(1), P(2)), (P(2, 1, 1), P(1, 2)), (P(1), P(1, 1))):
        with pytest.raises(ValueError, match="does not divide"):
            a // b


def test_division_by_zero_poly():
    with pytest.raises(ZeroDivisionError):
        prem(P(1, 2), Poly())
    with pytest.raises(ZeroDivisionError):
        P(1, 2) // Poly()


def test_bezout_certificate_random():
    rng = random.Random(2024)
    for _ in range(200):
        a = Poly([rng.randint(-4, 4) for _ in range(rng.randint(1, 9))])
        b = Poly([rng.randint(-4, 4) for _ in range(rng.randint(1, 9))])
        if a.is_zero() and b.is_zero():
            continue
        s, c, g = bezout(a, b)
        assert g == poly_gcd(a, b) and c != 0
        if b.is_zero():
            assert s * a == g * c
        else:
            assert not prem(s * a - g * c, b)[1]
            assert s.degree < b.degree - g.degree


def test_bezout_examples():
    a, b = P(1, -1, -1), P(1, -1, -1, -1)
    s, c, g = bezout(a, b)
    assert g == P_ONE and RatFun(s) * Fraction(1, c) == RatFun(P(4, 3, 2))
    k, r = prem(s * a, b)
    assert r == P(k * c)
    p = P(2, 0, -4)
    assert bezout(p, p)[::2] == (Poly(), p.primitive())
    # a | b: s*a = c*g = a up to content, so s is a constant
    s, c, g = bezout(P(1, -2), P(1, -2) * P(1, 1))
    assert (RatFun(s) * Fraction(1, c), g) == (1, P(1, -2))
    assert bezout(Poly(), P(2, 4))[::2] == (Poly(), P(1, 2))
    s, c, g = bezout(P(2, 4), Poly())
    assert (RatFun(s) * Fraction(1, c), g) == (Fraction(1, 2), P(1, 2))
    with pytest.raises(ValueError):
        bezout(Poly(), Poly())


def test_a_rational_recurrence_enters_through_ratfun():
    """gf_of clears a rational spec's denominators, so its GF, its shifts
    and a solve over it hold only int polynomial coefficients."""
    spec = RecurrenceSpec("r", 2, (Fraction(1, 2), 1), (0, Fraction(1, 3)))
    g, up = gf_of(spec), shifted_gf(spec, 2)
    assert (str(g), str(up)) == ("2*x/(6 - 3*x - 6*x^2)", "(1 + 2*x)/(6 - 3*x - 6*x^2)")
    assert all(type(c) is int for f in (g, up) for c in f.num.coeffs + f.den.coeffs)
    assert series_coeffs(g, 8) == handle(spec).values(8)
    cf = solve_conv_multi([spec, "T"])
    assert cf.text() == "(1/57)( - 12 r[n+1] - 36 r[n] + 4 T[n+1] + 10 T[n] + 12 T[n-1] )"
    assert cf.check_oracle(30)


def test_ratfun_canonical_equality():
    f = RatFun(P(0, 1), P(1, -1, -1))
    assert f == RatFun(P(0, 2), P(2, -2, -2))
    assert f == f


def test_a_scalar_compares_as_a_constant():
    f = gf_of(registry()["F"])
    assert f - f == 0 and 0 == f - f and f != 0
    assert RatFun(6, 4) == Fraction(3, 2) and hash(RatFun(6, 4)) == hash(Fraction(3, 2))
    assert RatFun(3) == 3 and hash(RatFun(3)) == hash(3)
    assert RatFun(3) != "3" and RatFun(3) != P(3)


def test_a_scalar_compares_as_a_constant_poly():
    assert P(3) == 3 and 3 == P(3) and hash(P(3)) == hash(3)
    assert Poly() == 0 and 0 == Poly() and hash(Poly()) == hash(0)
    assert P(1) != Fraction(1, 2) and Fraction(1, 2) != P(1) and P() != Fraction(1, 2)
    assert hash(P(3)) == hash(Fraction(3)) and {P(3): "x"}[Fraction(3)] == "x"
    assert Fraction(6, 2) == P(3) and P(3) == Fraction(3)
    assert P(1, 1) != 1 and 1 != P(1, 1) and P(3) != 4 and Poly() != 3
    assert P(3) != "3" and "3" != P(3) and P(3) != 3.0
    assert hash(P(1, 1)) == hash(P(1, 1)) and P(1, 1) == P(1, 1) and P(1, 1) != P(1, 2)
    assert {P(3): "x"}[3] == "x" and {3: "x"}[P(3)] == "x"


def test_substitute_neg_sign_rule():
    f = gf_of(registry()["F"])
    assert f.substitute_neg() == RatFun(P(0, -1), P(1, 1, -1))


def test_adjacent_step_functional_equation():
    # T - F == x^2 * F * T as canonical rational functions.
    f, t = gf_of(registry()["F"]), gf_of(registry()["T"])
    assert t - f == RatFun(P(0, 0, 1)) * f * t


def test_mul_div_roundtrip_random():
    rng = random.Random(5)
    gfs = [gf_of(spec) for spec in registry().values()]
    for _ in range(60):
        f = rng.choice(gfs) * rng.randint(1, 5) + rng.choice(gfs)
        g = rng.choice(gfs)
        if g.is_zero():
            continue
        assert f * g / g == f


def test_series_examples():
    assert series_coeffs(RatFun(P(0, 1), P(1, -1, -1)), 7) == [0, 1, 1, 2, 3, 5, 8]
    assert series_coeffs(RatFun(P_ONE, P(1, -2)), 4) == [1, 2, 4, 8]
    assert series_coeffs(RatFun(P(0, 1), P(1, -1, -2)), 6) == [0, 1, 1, 3, 5, 11]


def test_series_requires_power_series():
    with pytest.raises(NotAPowerSeries):
        series_coeffs(RatFun(P_ONE, P(0, 1)), 3)


def test_gf_of_examples():
    assert gf_of(make_mstep(4)) == RatFun(P(0, 1), P(1, -1, -1, -1, -1))
    assert gf_of(registry()["pell"]) == RatFun(P(0, 1), P(1, -2, -1))
    assert gf_of(registry()["pow2"]) == RatFun(P_ONE, P(1, -2))
    assert str(gf_of(registry()["F"])) == "x/(1 - x - x^2)"


def test_gf_of_divides_out_a_common_factor():
    # Fibonacci also satisfies a_n = 2a_(n-1) - a_(n-3): x(1 - x)/(1 - 2x + x^3),
    # whose numerator and denominator share the factor 1 - x.
    g = gf_of(RecurrenceSpec("fib3", 3, (2, 0, -1), (0, 1, 1)))
    assert g.num == P(0, 1) and g.den == P(1, -1, -1)


def test_gf_matches_terms_for_all_registered():
    for spec in registry().values():
        coeffs = series_coeffs(gf_of(spec), 200)
        assert coeffs == handle(spec).values(200)


def test_cauchy_product_commutes_with_series():
    gfs = {name: gf_of(spec) for name, spec in registry().items()}
    names = sorted(gfs)
    for i, a in enumerate(names):
        for b in names[i:]:
            fa, fb = gfs[a], gfs[b]
            sa = series_coeffs(fa, 64)
            sb = series_coeffs(fb, 64)
            cauchy = [
                sum(sa[j] * sb[n - j] for j in range(n + 1)) for n in range(64)
            ]
            assert series_coeffs(fa * fb, 64) == cauchy


def test_derivative_shifts_series():
    # x d/dx, the npoly rule for p(n) = n, takes coefficient k to k*a_k.
    for name in registry():
        ds = series_coeffs(ex.gf_of_expr(ex.mul(ex.npoly(0, 1), ex.term(name))), 33)
        s = series_coeffs(gf_of(registry()[name]), 33)
        assert all(ds[k] == k * s[k] for k in range(33))


def test_agrees_from_allows_only_a_polynomial_below_n0():
    f = gf_of(registry()["F"])
    bump = RatFun(P(0, 0, 7))  # changes the x^2 coefficient only
    assert agrees_from(f, f, 0)
    assert agrees_from(f + bump, f, 3) and not agrees_from(f + bump, f, 2)
    assert not agrees_from(f, gf_of(registry()["T"]), 50)


def test_shifted_gf_both_directions():
    h = handle("F")
    up = series_coeffs(shifted_gf(h.spec, 3), 30)
    down = series_coeffs(shifted_gf(h.spec, -2), 30)
    assert up == [h.term(n + 3) for n in range(30)]
    assert down == [h.term(n - 2) for n in range(30)]


def test_series_algebra_imports_nothing_from_the_package():
    """It reads specs only through their fields, so it stays independent
    of ``sequences``: no relative import at all."""
    with open(series_algebra.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    relative = [n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.level]
    assert relative == []
