import ast
import random

import pytest

from mstep import series_algebra
from mstep.sequences import handle, make_mstep, registry
from mstep.series_algebra import (
    NotAPowerSeries,
    P_ONE,
    Poly,
    RatFun,
    agrees_from,
    bezout,
    gf_of,
    poly_gcd,
    series_coeffs,
    shifted_gf,
)


def P(*coeffs):
    return Poly(coeffs)


def test_gcd_of_adjacent_mstep_denominators_is_one():
    assert poly_gcd(P(1, -1, -1), P(1, -1, -1, -1)) == P_ONE


def test_derivative():
    assert P(1, -2, 0, 1).derivative() == P(-2, 0, 3)


def test_divmod_against_reconstruction():
    q, r = divmod(P(0, 0, 1), P(1, -1, -1))
    assert q == P(-1) and r == P(1, -1)
    assert q * P(1, -1, -1) + r == P(0, 0, 1)


def test_divmod_random_reconstruction():
    rng = random.Random(7)
    for _ in range(120):
        a = Poly([rng.randint(-5, 5) for _ in range(rng.randint(0, 9))])
        b = Poly([rng.randint(-5, 5) for _ in range(rng.randint(1, 6))])
        if b.is_zero():
            continue
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree


def test_division_by_zero_poly():
    with pytest.raises(ZeroDivisionError):
        divmod(P(1, 2), Poly())


def test_bezout_certificate_random():
    rng = random.Random(2024)
    for _ in range(200):
        a = Poly([rng.randint(-4, 4) for _ in range(rng.randint(1, 9))])
        b = Poly([rng.randint(-4, 4) for _ in range(rng.randint(1, 9))])
        if a.is_zero() and b.is_zero():
            continue
        u, v, g = bezout(a, b)
        assert u * a + v * b == g
        assert g == poly_gcd(a, b)
        bg, ag = (b // g if g else b), (a // g if g else a)
        if bg.degree > 0 and not u.is_zero():
            assert u.degree < bg.degree
        if ag.degree > 0 and not v.is_zero():
            assert v.degree < ag.degree


def test_bezout_examples():
    u, v, g = bezout(P(1, -1, -1), P(1, -1, -1, -1))
    assert g == P_ONE and u * P(1, -1, -1) + v * P(1, -1, -1, -1) == P_ONE
    p = P(2, 0, -4)
    u, v, g = bezout(p, p)
    assert g == p.primitive()
    assert u * p + v * p == g
    u, v, g = bezout(P(1, -2), P(1, -2) * P(1, 1))
    assert g == P(1, -2)


def test_ratfun_canonical_equality():
    f = RatFun(P(0, 1), P(1, -1, -1))
    assert f == RatFun(P(0, 2), P(2, -2, -2))
    assert f == f


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
    for spec in registry().values():
        f = gf_of(spec)
        ds = series_coeffs(f.derivative(), 32)
        s = series_coeffs(f, 33)
        assert all(ds[k] == (k + 1) * s[k + 1] for k in range(32))


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
