import json
import tracemalloc
from fractions import Fraction

import pytest

from mstep import expressions as ex
from mstep.cli import main
from mstep.convolution_oracle import conv_multi_prefix
from mstep import identity_catalog as catalog
from mstep.identity_catalog import (Identity, compile_gf, expr_from_json, expr_to_json,
                                    load_manifest, verdict, verdicts)
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


def test_a_shifted_conv_of_a_negative_geo2_clears_its_prefix_denominator():
    """Regression: 2^(n-1) has GF (1/2)/(1 - 2x), so the single-kernel conv
    shifted by +1 has the prefix 1/2; shift_series scales it by L = 2
    against the unscaled den: num' = L*N - P*D, den' = L*D."""
    e = ex.ConvAtom((ex.Geo2(-1),), 1)
    g = ex.gf_of_expr(e)
    assert all(type(c) is int for c in g.num.coeffs + g.den.coeffs)
    assert series_coeffs(g, 40) == ex.evaluate_range(e, 40)
    assert str(g) == "(3 - 2*x)/(2 - 6*x + 4*x^2)"


# each rational entry path, and its GF as printed while Poly still took Fractions
RATIONAL_ENTRIES = [
    (ex.geo2(-3), "1/(8 - 16*x)"),
    (ex.conv(ex.geo2(-2), ex.term("F"), offset=2),
     "(3 - x - 2*x^2)/(4 - 12*x + 4*x^2 + 8*x^3)"),
    (ex.scale(Fraction(2, 3), ex.term("T", 2)), "(2 + 2*x + 2*x^2)/(3 - 3*x - 3*x^2 - 3*x^3)"),
    (ex.conv(ex.scale(Fraction(1, 3), ex.term("F")), ex.term("pell"), offset=3),
     "(3 - 3*x^2 - x^3)/(3 - 9*x + 9*x^3 + 3*x^4)"),
    (ex.mul(ex.npoly(Fraction(1, 2), Fraction(-3, 4)), ex.term("Q", 1)),
     "(2 - 5*x - 8*x^2 - 11*x^3 - 14*x^4)/"
     "(4 - 8*x - 4*x^2 + 4*x^4 + 16*x^5 + 12*x^6 + 8*x^7 + 4*x^8)"),
    (ex.mul(ex.npoly(Fraction(1, 2)), ex.npoly(0, Fraction(1, 3)), ex.term("jacobsthal")),
     "(x + 2*x^3)/(6 - 12*x - 18*x^2 + 24*x^3 + 24*x^4)"),
    (ex.mul(ex.const(Fraction(5, 6)), ex.alt(1), ex.npoly(Fraction(1, 5), 1)),
     "(-1 + 4*x)/(6 + 12*x + 6*x^2)"),
    (ex.conv(ex.mul(ex.npoly(Fraction(1, 2), 1), ex.term("F")), offset=2),
     "(8 - 2*x - 9*x^2 + 3*x^3 + 3*x^4)/(2 - 6*x + 2*x^2 + 6*x^3 - 2*x^4 - 2*x^5)"),
    (ex.add(ex.conv(ex.geo2(-1), ex.scale(Fraction(3, 2), ex.term("T")), offset=1), ex.geo2(-2)),
     "(4 - x - x^2 - x^3)/(4 - 12*x + 4*x^2 + 4*x^3 + 8*x^4)"),
]
GF_TREE_ENTRIES = [
    (["poly", [Fraction(1, 2), Fraction(-2, 3)]], "(3 - 4*x)/6"),
    (["mul", ["poly", [Fraction(3, 4), 0, Fraction(1, 6)]], ["seqgf", "F"]],
     "(9*x + 2*x^3)/(12 - 12*x - 12*x^2)"),
    (["div", ["seqgf", "T"], ["poly", [Fraction(1, 2), Fraction(1, 3)]]],
     "6*x/(3 - x - 5*x^2 - 5*x^3 - 2*x^4)"),
    (["add", ["poly", [Fraction(1, 2)]], ["subneg", ["seqgf", "pell"]]],
     "(1 - x^2)/(2 + 4*x - 2*x^2)"),
]


@pytest.mark.parametrize("expr, printed", RATIONAL_ENTRIES,
                         ids=[f"entry{k}" for k in range(len(RATIONAL_ENTRIES))])
def test_rational_entries_compile_to_integral_pairs(expr, printed):
    g = ex.gf_of_expr(expr)
    assert all(type(c) is int for c in g.num.coeffs + g.den.coeffs)
    assert series_coeffs(g, 40) == ex.evaluate_range(expr, 40)
    assert str(g) == printed


@pytest.mark.parametrize("tree, printed", GF_TREE_ENTRIES,
                         ids=[f"tree{k}" for k in range(len(GF_TREE_ENTRIES))])
def test_rational_poly_leaves_compile_to_integral_pairs(tree, printed):
    g = compile_gf(tree)
    assert all(type(c) is int for c in g.num.coeffs + g.den.coeffs)
    assert str(g) == printed


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


def _traced_peak(expr, length: int) -> int:
    tracemalloc.start()
    try:
        ex.evaluate_range(expr, length)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_wide_sum_holds_two_columns_not_all_of_them():
    # Adding the children's columns one at a time keeps a 100-term sum near
    # the peak of one scaled column (about 3x); holding them all is ~100x.
    ex.clear_caches()
    length = 2000
    ex.evaluate_range(ex.term("F", 99), length)  # extend F's terms outside the measure
    one = _traced_peak(ex.scale(3, ex.term("F")), length)
    wide = _traced_peak(ex.add(*[ex.scale(k + 2, ex.term("F", k)) for k in range(100)]), length)
    ex.clear_caches()
    assert wide <= 5 * one, (wide, one)


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


def test_npoly_takes_no_gcd_above_the_degree_of_its_base(monkeypatch):
    """n^6 * octanacci: every gcd has an operand of degree <= 8 = deg D; a
    per-power derivative would take gcds against D^2 (degree 16)."""
    calls = []

    def recording_gcd(a, b, gcd=series_algebra.poly_gcd):
        calls.append((a.degree, b.degree))
        return gcd(a, b)

    monkeypatch.setattr(series_algebra, "poly_gcd", recording_gcd)
    monkeypatch.setattr(ex, "poly_gcd", recording_gcd, raising=False)
    ex.clear_caches()
    g = ex.gf_of_expr(ex.mul(ex.npoly(0, 0, 0, 0, 0, 0, 1), ex.term("octanacci")))
    assert calls and all(min(c) <= 8 for c in calls), calls
    O = handle("octanacci")
    assert series_coeffs(g, 12) == [n ** 6 * O.term(n) for n in range(12)]


def test_pointwise_product_of_sequences_not_compilable():
    with pytest.raises(ex.NotCompilable, match="pointwise product"):
        ex.gf_of_expr(ex.mul(ex.term("F"), ex.term("T")))


@pytest.mark.parametrize("value", [
    pytest.param(object(), id="object"),
    pytest.param(RatFun(1), id="ratfun"),
    pytest.param(ex.Product((ex.const(2), RatFun(1))), id="scalar-times-ratfun"),
    pytest.param(ex.Product((ex.alt(1), object())), id="alt-times-object"),
])
def test_a_value_that_is_not_a_node_is_a_type_error(value):
    with pytest.raises(TypeError, match="not a SeqExpr"):
        ex.gf_of_expr(value)
    with pytest.raises(TypeError, match="not a SeqExpr"):
        ex.evaluate_range(value, 5)


_HADAMARD = ex.mul(ex.term("F"), ex.term("T"))


@pytest.mark.parametrize("tree", [
    pytest.param(ex.add(ex.term("F"), _HADAMARD), id="sum"),
    pytest.param(ex.scale(3, _HADAMARD), id="scale"),
    pytest.param(ex.conv(ex.term("F"), _HADAMARD), id="conv-kernel"),
    pytest.param(ex.mul(ex.alt(1), ex.npoly(1, 2), ex.conv(_HADAMARD)), id="scaled-conv"),
])
def test_a_nested_two_base_product_is_not_compilable(tree):
    with pytest.raises(ex.NotCompilable, match="pointwise product") as caught:
        ex.gf_of_expr(tree)
    assert isinstance(caught.value, ValueError)
    report = verdict(Identity("nested", "seq", tree, tree, 0), 30, symbolic=True)
    assert report.mode == "numeric" and report.passed


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


def test_sum_over_one_denominator_takes_one_gcd(monkeypatch):
    gf_of(sequences.resolve("T"))  # the GF's own gcd is not the sum's
    calls = []
    real = series_algebra.poly_gcd
    monkeypatch.setattr(series_algebra, "poly_gcd", lambda a, b: calls.append(1) or real(a, b))
    tree = ex.add(*[ex.scale(s + 3, ex.term("T", s)) for s in range(-2, 5)])
    g = ex.gf_of_expr(tree)
    assert len(calls) <= 1
    assert series_coeffs(g, 30) == ex.evaluate_range(tree, 30)


def test_json_roundtrip():
    exprs = [
        fq_rhs(),
        ex.conv(ex.mul(ex.alt(0), ex.sub(ex.term("Q"), ex.term("F"))), offset=-1),
        ex.scale(Fraction(1, 2), ex.mul(ex.npoly(-2, -9, 5), ex.term("F", -1))),
        ex.add(ex.geo2(2), ex.const(Fraction(3, 7))),
    ]
    for e in exprs:
        assert expr_from_json(expr_to_json(e)) == e


def test_json_refuses_a_term_whose_sequence_is_not_a_name():
    # A spec would serialize as a list that expr_from_json cannot read back.
    with pytest.raises(TypeError):
        json.dumps(expr_to_json(ex.term(sequences.resolve("F"), 1)))
    with pytest.raises(TypeError):
        json.dumps(expr_to_json(ex.add(ex.term("F"), ex.term(sequences.resolve("T")))))


def test_nodes_equal_only_nodes_of_their_kind():
    assert ex.Alt(0) != ex.Geo2(0) and not ex.Alt(0) == ex.Geo2(0)
    assert ex.Term("F") != ("F", 0) and ("F", 0) != ex.Term("F")
    assert not ex.Term("F") == ("F", 0)
    assert ex.Term("F") == ex.Term("F", 0) and hash(ex.Term("F")) == hash(ex.Term("F", 0))
    memo = {ex.Alt(0): "alt"}
    assert ex.Geo2(0) not in memo and memo[ex.Alt(0)] == "alt"


def test_node_repr_is_pinned():
    # _conv_table sorts kernels by repr, so this text orders its cache keys
    atom = ex.conv(ex.term("F", -1), ex.scale(Fraction(1, 2), ex.alt(1)), offset=2)
    assert repr(atom) == ("ConvAtom(kernels=(Term(seq='F', shift=-1), "
                          "Scale(factor=Fraction(1, 2), child=Alt(offset=1))), offset=2)")


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
    assert ex._CONV_CACHE == {} and ex._CONV_PLAN == {}


class _CountingCache(dict):
    """A table cache that records every key stored in it."""

    def __init__(self):
        super().__init__()
        self.stored = []

    def __setitem__(self, key, table):
        self.stored.append(key)
        super().__setitem__(key, table)


def test_verify_all_builds_each_table_once(capsys, monkeypatch):
    ex.clear_caches()
    cache = _CountingCache()
    monkeypatch.setattr(ex, "_CONV_CACHE", cache)
    assert main(["verify", "--all", "--max-n", "200"]) == 0
    capsys.readouterr()
    assert len(cache.stored) == len(set(cache.stored)) == 136
    assert cache == {}


# One tuple read on its own, then at a longer length from a conv kernel, and
# one tuple read at two offsets (c_offsets fails at n = 0, so stdout
# carries table values).
_NESTED_MANIFEST = {"identities": [
    {"id": "a_partial_sum", "kind": "seq", "n0": 0,
     "lhs": ["conv", [["term", "T", 0]], 5],
     "rhs": ["sum", ["conv", [["term", "T", 0]], 4], ["term", "T", 5]]},
    {"id": "b_nested", "kind": "seq", "n0": 0,
     "lhs": ["conv", [["term", "F", 0], ["conv", [["term", "T", 0]], 0]], 7],
     "rhs": ["conv", [["term", "F", 0], ["term", "T", 0], ["const", "1"]], 7]},
    {"id": "c_offsets", "kind": "seq", "n0": 0,
     "lhs": ["conv", [["term", "T", 0], ["term", "F", 0]], 3],
     "rhs": ["conv", [["term", "F", 0], ["term", "T", 0]], -2]},
]}


@pytest.mark.parametrize("flags", [(), ("--format", "json")])
def test_planned_tables_on_nested_convs(tmp_path, capsys, monkeypatch, flags):
    path = tmp_path / "nested.json"
    path.write_text(json.dumps(_NESTED_MANIFEST))
    argv = ["verify", "--all", "--max-n", "60", "--manifest", str(path), *flags]
    cache = _CountingCache()
    monkeypatch.setattr(ex, "_CONV_CACHE", cache)
    code = main(argv)
    out = capsys.readouterr().out
    assert len(cache.stored) == len(set(cache.stored)) == 4
    assert cache == {} and ex._CONV_PLAN == {}
    # Without a plan, tables are built on demand and kept, as in library use.
    monkeypatch.setattr(catalog, "verdicts", lambda idents, n_max, symbolic: [
        verdict(i, n_max, symbolic) for i in sorted(idents, key=lambda i: i.id)])
    monkeypatch.setattr(ex, "_CONV_CACHE", {})
    assert (main(argv), capsys.readouterr().out) == (code, out)
    assert len(ex._CONV_CACHE) == 4
    if flags:
        passed = {doc["id"]: doc["pass"] for doc in json.loads(out)}
    else:
        passed = {line.split()[1]: line.startswith("PASS") for line in out.splitlines()[:-1]}
    assert code == 1 and passed == {"a_partial_sum": True, "b_nested": True, "c_offsets": False}


def test_a_raising_verify_loop_leaves_no_tables():
    # adjacent_m6 has n0 = 6, so n_max = 5 raises after the entries before it
    # in id order have built their tables.  They are gone while the traceback,
    # which holds the loop's frames, is still alive: not left to the collector.
    ex.clear_caches()
    with pytest.raises(ValueError, match="adjacent_m6: n_max 5 is below n0 6") as caught:
        verdicts(load_manifest(), 5)
    assert caught.tb is not None
    assert ex._CONV_CACHE == {} and ex._CONV_PLAN == {}


def test_verdict_called_directly_keeps_its_tables():
    # sum_{j <= n+2} T_j = (T_(n+4) + T_(n+2) - 1)/2
    ident = Identity("partial_sum_T", "seq", ex.conv(ex.term("T"), offset=2),
                     ex.scale(Fraction(1, 2), ex.add(ex.term("T", 4), ex.term("T", 2),
                                                     ex.const(-1))))
    ex.clear_caches()
    assert verdict(ident, 50).passed
    assert list(ex._CONV_CACHE) == [(ex.term("T"),)] and ex._CONV_PLAN == {}


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
