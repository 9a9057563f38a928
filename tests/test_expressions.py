from fractions import Fraction

import pytest

from mstep import expressions as ex
from mstep.cli import main
from mstep.convolution_oracle import conv_multi_prefix
from mstep import sequences
from mstep.sequences import handle
from mstep import series_algebra
from mstep.series_algebra import RatFun, gf_of, series_coeffs


def fq_rhs():
    return ex.add(ex.term("Q", 1), ex.term("Q", -1), ex.scale(-1, ex.term("F", 1)))


def test_evaluate_known_values():
    assert ex.evaluate(fq_rhs(), 4) == 5
    assert ex.evaluate(ex.const(0), 17) == 0
    # alternating partial sum of Tribonacci numbers at n = 4
    lhs = ex.conv(ex.mul(ex.alt(0), ex.term("T")))
    assert ex.evaluate(lhs, 4) == 2
    rhs = ex.scale(Fraction(1, 2), ex.add(
        ex.mul(ex.alt(0), ex.sub(ex.term("T", 1), ex.term("T", -1))), ex.const(-1)))
    assert ex.evaluate(rhs, 4) == 2


def test_empty_simplex_is_zero():
    atom = ex.conv(ex.term("F"), ex.term("T"), offset=-5)
    assert ex.evaluate(atom, 3) == 0
    assert ex.evaluate_range(atom, 5) == [0] * 5


def test_evaluate_range_agrees_with_pointwise():
    exprs = [
        fq_rhs(),
        ex.conv(ex.term("F"), ex.term("T")),
        ex.conv(ex.term("F"), ex.term("T"), ex.term("Q"), offset=-2),
        ex.conv(ex.mul(ex.alt(0), ex.term("Q"))),
        ex.mul(ex.alt(1), ex.conv(ex.term("Q"), ex.term("F"), offset=-3)),
        ex.mul(ex.npoly(-1, 1), ex.term("F")),
        ex.add(ex.geo2(1), ex.scale(-1, ex.term("F", 3))),
        ex.conv(ex.term("T"), ex.term("Q", 4), offset=-7),
    ]
    for e in exprs:
        ranged = ex.evaluate_range(e, 41)
        assert ranged == [ex.evaluate(e, n) for n in range(41)]
        assert ranged == series_coeffs(ex.gf_of_expr(e), 41)
        if isinstance(e, ex.ConvAtom) and len(e.kernels) > 1 and all(
                isinstance(k, ex.Term) and k.shift == 0 for k in e.kernels):
            c = e.offset
            naive = conv_multi_prefix([k.seq for k in e.kernels], 40 + c)
            assert ranged == [naive[n + c] if n + c >= 0 else 0 for n in range(41)]


def test_integral_columns_hold_ints():
    exprs = [
        ex.scale(-1, ex.term("F")),
        ex.sub(ex.term("T"), ex.term("F")),
        ex.conv(ex.sub(ex.term("F"), ex.term("T")), ex.term("Q")),
    ]
    for e in exprs:
        assert all(type(v) is int for v in ex.evaluate_range(e, 60))


def test_fractions_that_become_integral_come_back_as_ints():
    half = Fraction(1, 2)
    exprs = [
        ex.add(ex.npoly(half), ex.npoly(half)),
        ex.mul(ex.const(Fraction(3, 2)), ex.scale(Fraction(2, 3), ex.term("F"))),
        ex.scale(half, ex.term("pow2")),
        ex.npoly(half, half),
        ex.geo2(-1),
        ex.conv(ex.npoly(half)),
        ex.conv(ex.npoly(half), ex.npoly(2)),
    ]
    for e in exprs:
        values = ex.evaluate_range(e, 20)
        assert all(type(v) is int or v.denominator != 1 for v in values)
        assert any(type(v) is int and v for v in values)


def test_evaluate_rejects_negative_index():
    with pytest.raises(ValueError):
        ex.evaluate(ex.term("F"), -1)


def test_gf_of_partial_sum_identity():
    lhs = ex.gf_of_expr(ex.conv(ex.term("F")))
    rhs = ex.gf_of_expr(ex.add(ex.term("F", 2), ex.const(-1)))
    assert isinstance(lhs, RatFun) and lhs == rhs


def test_gf_of_conv_is_product():
    g = ex.gf_of_expr(ex.conv(ex.term("F"), ex.term("T")))
    assert g == gf_of(handle("F").spec) * gf_of(handle("T").spec)


def test_gf_of_npoly_times_term():
    g = ex.gf_of_expr(ex.mul(ex.npoly(0, 1), ex.term("F")))
    F = handle("F")
    assert series_coeffs(g, 10) == [n * F.term(n) for n in range(10)]


def test_pointwise_product_of_sequences_not_compilable():
    g = ex.gf_of_expr(ex.mul(ex.term("F"), ex.term("T")))
    assert isinstance(g, ex.NotCompilable)


def test_gf_of_positive_offset_conv():
    atom = ex.conv(ex.term("T"), ex.term("Q"), offset=2)
    g = ex.gf_of_expr(atom)
    assert isinstance(g, RatFun)
    assert series_coeffs(g, 30) == ex.evaluate_range(atom, 30)


def test_gf_of_alt_wrapped_conv():
    expr = ex.mul(ex.alt(1), ex.conv(ex.term("Q"), ex.term("F"), offset=-3))
    g = ex.gf_of_expr(expr)
    assert isinstance(g, RatFun)
    assert series_coeffs(g, 30) == ex.evaluate_range(expr, 30)


def test_json_roundtrip():
    exprs = [
        fq_rhs(),
        ex.conv(ex.mul(ex.alt(0), ex.sub(ex.term("Q"), ex.term("F"))), offset=-1),
        ex.scale(Fraction(1, 2), ex.mul(ex.npoly(-2, -9, 5), ex.term("F", -1))),
        ex.add(ex.geo2(2), ex.const(Fraction(3, 7))),
    ]
    for e in exprs:
        assert ex.expr_from_json(ex.expr_to_json(e)) == e


def test_pointwise_evaluate_extends_the_cache_geometrically(monkeypatch):
    e = ex.conv(ex.term("F"), ex.term("T"), ex.term("Q"))
    ex.clear_caches()
    real = ex.evaluate_range
    root_calls = []

    def counted(expr, length):
        if expr == e:
            root_calls.append(length)
        return real(expr, length)

    monkeypatch.setattr(ex, "evaluate_range", counted)
    values = [ex.evaluate(e, n) for n in range(300)]
    assert values == conv_multi_prefix(["F", "T", "Q"], 299)
    assert len(root_calls) <= 10


def test_verify_all_leaves_no_columns_cached(capsys):
    ex.clear_caches()
    assert main(["verify", "--all", "--max-n", "200"]) == 0
    capsys.readouterr()
    assert ex._RANGE_CACHE == {}
    assert ex._CONV_CACHE


def test_clear_caches_empties_the_gf_memo():
    g = ex.gf_of_expr(ex.term("T", 3))
    assert series_algebra._GFS
    ex.clear_caches()
    assert series_algebra._GFS == {}
    assert ex.gf_of_expr(ex.term("T", 3)) == g


def test_clear_caches_empties_the_term_memo():
    h = handle("T")
    h.term(50)
    ex.clear_caches()
    assert sequences._HANDLES == {}
    assert handle("T") is not h and handle("T").term(50) == h.term(50)
