"""Property tests for the expression evaluator: on random trees inside the
rational fragment, ``evaluate_range`` equals the Taylor coefficients of the
compiled generating function, and every integral value is an int.  A sum's
GF equals the one-at-a-time fold of its children's GFs by RatFun's +, and
takes one gcd per denominator past the first.  The
convolution step equals a direct Cauchy sum for any denominator hint, and
so does every multi-kernel convolution table of the catalog.  A verify
loop over random conv identities decides as the entries one at a time do
and leaves no table or plan behind, raising or not.
``den_degree`` bounds the degree of the compiled denominator, and
``gf_degree`` both degrees of a compiled gf tree.  The npoly
rule equals the per-power rule it replaced, kept here as the reference."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mstep import expressions as ex
from mstep import series_algebra
from mstep.convolution_oracle import conv_multi_prefix
from mstep.identity_catalog import (Identity, compile_gf, den_degree, gf_degree, load_manifest,
                                    verdict, verdicts)
from mstep.series_algebra import (P_ONE, Poly, RatFun, integral, poly_gcd, series_coeffs,
                                   series_divide, shift_series)

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
        # no base: the scalars rescale 1/(1-x)
        st.lists(pointwise_scalars, min_size=2, max_size=3).map(lambda fs: ex.Product(tuple(fs))),
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


# -- rationals enter only through RatFun ------------------------------------------

proper_fractions = st.fractions(-3, 3, max_denominator=4).filter(lambda q: q.denominator != 1)
rational_leaves = st.one_of(
    terms,
    st.lists(st.one_of(st.integers(-3, 3), proper_fractions), min_size=1, max_size=3)
    .map(lambda cs: ex.npoly(*cs)),
    st.integers(-4, -1).map(ex.geo2),
    proper_fractions.map(ex.const),
)
# Fraction scales, and convs whose kernels' den(0) is not +-1 once a scale,
# a Fraction NPoly or a negative Geo2 sits below them
rational_trees = st.recursive(rational_leaves, lambda children: st.one_of(
    st.builds(ex.Scale, proper_fractions, children),
    st.builds(lambda ks, c: ex.ConvAtom(tuple(ks), c),
              st.lists(children, min_size=1, max_size=2), st.integers(0, 3)),
    st.builds(lambda fs, base: ex.Product((*fs, base)),
              st.lists(pointwise_scalars, min_size=1, max_size=2), children),
    st.lists(children, min_size=2, max_size=3).map(lambda ts: ex.Sum(tuple(ts))),
), max_leaves=4)
rational_lists = st.lists(st.one_of(st.integers(-3, 3), proper_fractions), min_size=1,
                          max_size=4)
# manifest gf trees with Fraction poly leaves, each a power series
gf_trees = st.one_of(
    rational_lists.map(lambda cs: ["poly", cs]),
    st.builds(lambda cs, name: ["mul", ["poly", cs], ["seqgf", name]],
              rational_lists, st.sampled_from(["F", "T", "pell", "jacobsthal"])),
    st.builds(lambda cs, name: ["div", ["seqgf", name], ["poly", cs]],
              rational_lists.filter(lambda cs: cs[0] != 0), st.sampled_from(["F", "pow2"])),
)


def assert_integral_and_canonical(g: RatFun) -> None:
    """Every coefficient is an int, and g.lowest(), which str prints, is the
    one canonical form: coprime, joint content 1, den's lowest term > 0."""
    assert all(type(c) is int for c in g.num.coeffs + g.den.coeffs)
    low = g.lowest()
    assert low == g and str(low) == str(g)
    assert all(type(c) is int for c in low.num.coeffs + low.den.coeffs)
    assert poly_gcd(low.num, low.den).degree <= 0
    assert math.gcd(*low.num.coeffs, *low.den.coeffs) == 1 and low.den[low.den.valuation()] > 0


@settings(deadline=None, max_examples=120)
@given(rational_trees)
def test_rational_entry_paths_compile_to_integral_gfs(e):
    g = ex.gf_of_expr(e)
    assert_integral_and_canonical(g)
    assert series_coeffs(g, LENGTH) == ex.evaluate_range(e, LENGTH)


@settings(deadline=None, max_examples=80)
@given(gf_trees)
def test_rational_poly_leaves_compile_to_integral_gfs(tree):
    g = compile_gf(tree)
    assert_integral_and_canonical(g)
    tag = tree[0]
    if tag == "poly":
        want = tree[1] + [0] * (LENGTH - len(tree[1]))
    else:
        leaf, seqgf = (tree[1], tree[2]) if tag == "mul" else (tree[2], tree[1])
        seq = ex.evaluate_range(ex.term(seqgf[1]), LENGTH)
        if tag == "mul":
            want = direct_product((leaf[1] + [0] * LENGTH)[:LENGTH], seq)
        else:  # seq / (p/den), with p(0) != 0
            p, den = integral(leaf[1])
            want = series_divide([den * v for v in seq], p, LENGTH)
    assert series_coeffs(g, LENGTH) == want


seq_terms = st.builds(ex.Term, st.sampled_from(["F", "T", "pell"]), shifts)
summands = st.one_of(seq_terms, st.builds(ex.Scale, scalars.filter(bool), seq_terms),
                     consts, alts)


@settings(deadline=None, max_examples=150)
@given(st.lists(summands, min_size=2, max_size=8))
def test_sum_gf_equals_the_henrici_fold_of_its_children(children):
    """The reference adds the children's GFs one at a time by RatFun's +."""
    fold = ex.gf_of_expr(children[0])
    for child in children[1:]:
        fold = fold + ex.gf_of_expr(child)
    assert ex.gf_of_expr(ex.Sum(tuple(children))) == fold


@settings(deadline=None, max_examples=100)
@given(st.lists(summands, min_size=2, max_size=8))
def test_a_sum_takes_one_gcd_per_further_denominator(children):
    """Children with k distinct denominators cost a Sum at most k - 1 gcds,
    its lcm's: counting k compiles every child, and a recompiled child
    reads its memoised GF, with no gcd."""
    k = len({ex.gf_of_expr(c).den for c in children})
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        for module in (ex, series_algebra):
            mp.setattr(module, "poly_gcd", lambda a, b: calls.append((a, b)) or poly_gcd(a, b))
        ex.gf_of_expr(ex.Sum(tuple(children)))
    assert len(calls) <= k - 1


def direct_product(a, b):
    """The first len(a) coefficients of a*b by the Cauchy sum."""
    return [sum(a[j] * b[n - j] for j in range(n + 1)) for n in range(len(a))]


ONE_MINUS_X = Poly((1, -1))
numbers = st.one_of(st.integers(-50, 50), st.fractions(-9, 9, max_denominator=5))
# any hint with D(0) != 0: D = 1, hints that annihilate b, and hints that do not;
# a hint is a Poly, so a rational one enters with its denominators cleared
hints = st.one_of(
    st.just(P_ONE),
    st.builds(lambda d0, rest: integral((d0, *rest))[0], numbers.filter(bool),
              st.lists(numbers, max_size=4)),
)


@st.composite
def convolution_inputs(draw):
    length = draw(st.integers(1, 24))
    column = st.lists(numbers, min_size=length, max_size=length)
    den = draw(hints)
    if draw(st.booleans()):
        # b = num/den, so den annihilates b and E = den*b has finite support
        b = series_divide(draw(st.lists(numbers, max_size=6)), den, length)
    else:
        b = draw(column)
    if draw(st.booleans()):
        den = den * ONE_MINUS_X  # the telescoped hint _conv_table may choose
    return draw(column), b, den


@settings(deadline=None, max_examples=200)
@given(convolution_inputs())
def test_convolve_equals_the_direct_sum_for_any_hint(inputs):
    a, b, den = inputs
    got = ex._convolve(a, b, den)
    assert got == direct_product(a, b)
    assert all(type(v) is int or (type(v) is Fraction and v.denominator != 1) for v in got)


def test_mstep_tables_use_the_three_term_hint(monkeypatch):
    hints = []
    real = ex._convolve

    def recorded(a, b, den):
        hints.append(den)
        return real(a, b, den)

    monkeypatch.setattr(ex, "_convolve", recorded)
    ex.clear_caches()
    for name in ("F5", "F", "pell", "jacobsthal", "pow2"):
        # Const sorts before Term, so the term is the kernel multiplied in
        ex.evaluate_range(ex.conv(ex.const(1), ex.term(name)), LENGTH)
    f5, f, pell, jacobsthal, pow2 = hints
    assert f5 == Poly((1, -2, 0, 0, 0, 0, 1))  # (1-x)(1 - x - ... - x^5)
    for name, hint in (("F", f), ("pell", pell), ("jacobsthal", jacobsthal), ("pow2", pow2)):
        assert hint == ex.gf_of_expr(ex.term(name)).den, name
    ex.clear_caches()


@settings(deadline=None, max_examples=150)
@given(trees)
def test_den_degree_bounds_the_gf_denominator(e):
    assert ex.gf_of_expr(e).den.degree <= den_degree(e)


gf_leaves = st.one_of(
    st.lists(st.integers(-3, 3), max_size=4).map(lambda cs: ["poly", cs]),
    st.sampled_from(["F1", "F", "T", "Q", "pell", "pow2"]).map(lambda name: ["seqgf", name]),
)
gf_trees = st.recursive(gf_leaves, lambda children: st.one_of(
    st.lists(children, min_size=1, max_size=3).flatmap(
        lambda ts: st.sampled_from(["add", "mul"]).map(lambda tag: [tag, *ts])),
    st.tuples(st.sampled_from(["sub", "div"]), children, children).map(list),
    st.tuples(st.sampled_from(["neg", "subneg"]), children).map(list),
), max_leaves=6)


@settings(deadline=None, max_examples=150)
@given(gf_trees)
def test_gf_degree_bounds_both_degrees_of_a_gf_tree(tree):
    try:
        g = compile_gf(tree)
    except ValueError:  # a zero divisor
        assume(False)
    assert max(g.num.degree, g.den.degree) <= gf_degree(tree)


def _conv_atoms(e, found):
    """Every ConvAtom in the tree e, added to the set found."""
    if isinstance(e, ex.ConvAtom):
        found.add(e)
        children = e.kernels
    elif isinstance(e, ex.Sum):
        children = e.terms
    elif isinstance(e, ex.Product):
        children = e.factors
    elif isinstance(e, ex.Scale):
        children = (e.child,)
    else:
        children = ()
    for child in children:
        _conv_atoms(child, found)
    return found


def test_catalog_convolution_tables_equal_the_direct_sum():
    length = 401
    atoms = set()
    for ident in load_manifest():
        if ident.kind == "seq":
            _conv_atoms(ident.lhs, atoms)
            _conv_atoms(ident.rhs, atoms)
    multi = sorted((a for a in atoms if len(a.kernels) > 1), key=repr)
    assert len(multi) > 200
    top = length + max(max(a.offset for a in multi), 0)  # table length that every atom reads
    ex.clear_caches()
    tables, naive = {}, {}
    for atom in multi:
        kernels = tuple(sorted(atom.kernels, key=repr))
        if kernels not in tables:
            table = ex.evaluate_range(kernels[0], top)
            for kern in kernels[1:]:
                table = direct_product(table, ex.evaluate_range(kern, top))
            tables[kernels] = table
        c = atom.offset
        want = [tables[kernels][n + c] if n + c >= 0 else 0 for n in range(length)]
        assert ex.evaluate_range(atom, length) == want, atom
        if all(isinstance(k, ex.Term) and k.shift == 0 for k in kernels):
            names = tuple(k.seq for k in kernels)
            if names not in naive:
                naive[names] = conv_multi_prefix(names, top - 1)
            assert naive[names] == tables[kernels], names


def _ratfun_derivative(f):
    """d/dx of a RatFun, reduced by ``RatFun.lowest``'s full gcd."""
    return RatFun(f.num.derivative() * f.den - f.num * f.den.derivative(), f.den * f.den).lowest()


def naive_apply_npoly(coeffs, g):
    """The per-power rule that ``expressions._apply_npoly`` replaced, kept as
    the reference: x d/dx one power at a time, each by a reduced derivative,
    a shift and an add."""
    acc = RatFun(coeffs[0]) * g if coeffs else RatFun(Poly())
    power = g
    for c in coeffs[1:]:
        power = shift_series(_ratfun_derivative(power), -1)
        if c:
            acc = acc + RatFun(c) * power
    return acc


# degree <= 5 with rational coefficients; the second form ends in zeros
npoly_coeffs = st.lists(st.one_of(st.just(0), scalars), max_size=6)
npoly_coeffs = st.one_of(npoly_coeffs, npoly_coeffs.map(lambda cs: cs[:4] + [0, 0]))
npoly_bases = st.one_of(trees, st.just(ex.const(0)))  # the zero GF too


@settings(deadline=None, max_examples=150)
@given(npoly_coeffs, npoly_bases, st.one_of(st.none(), npoly_coeffs))
def test_npoly_rule_equals_the_per_power_rule(coeffs, base, second):
    g = ex.gf_of_expr(base)
    want = naive_apply_npoly(coeffs, g)
    p, scale = integral(coeffs)  # the rule takes an integral p: p(n)/scale
    assert ex._apply_npoly(p, g) * Fraction(1, scale) == want
    assert ex.gf_of_expr(ex.mul(ex.npoly(*coeffs), base)) == want
    if second is not None:
        # the NPoly factors of one product apply as their product
        got = ex.gf_of_expr(ex.mul(ex.npoly(*coeffs), ex.npoly(*second), base))
        assert got == naive_apply_npoly(second, want)


def test_npoly_rule_on_a_zero_numerator():
    """npoly(0, 0) * F and 0 * npoly(0, 1) compile to the zero GF."""
    zero = RatFun(Poly())
    assert ex.gf_of_expr(ex.mul(ex.npoly(0, 0), ex.term("F"))) == zero
    assert ex.gf_of_expr(ex.mul(ex.const(0), ex.npoly(0, 1))) == zero
    assert naive_apply_npoly((0, 0), ex.gf_of_expr(ex.term("F"))) == zero


conv_kernels = st.lists(st.builds(ex.Term, st.sampled_from(["F", "T", "Q", "pell"])),
                        min_size=1, max_size=3)
conv_offsets = st.integers(-6, 6)
flat_convs = st.builds(lambda ks, c: ex.conv(*ks, offset=c), conv_kernels, conv_offsets)
# one nested conv among the kernels: its table is read at the outer one's length
nested_convs = st.builds(lambda ks, inner, c: ex.conv(*ks, inner, offset=c),
                         conv_kernels, flat_convs, conv_offsets)
conv_sides = st.one_of(flat_convs, nested_convs)


@st.composite
def conv_identities(draw):
    """1 to 5 seq entries in random id order, some with n0 > 0."""
    sides = draw(st.lists(st.tuples(conv_sides, conv_sides, st.integers(0, 3)),
                          min_size=1, max_size=5))
    ids = draw(st.lists(st.integers(0, 99), min_size=len(sides), max_size=len(sides),
                        unique=True))
    return [Identity(f"e{k:02d}", "seq", lhs, rhs, n0) for k, (lhs, rhs, n0) in zip(ids, sides)]


def _decisions(run):
    """run()'s verdicts, or the message of the ValueError it raised."""
    try:
        return run()
    except ValueError as exc:
        return str(exc)


@settings(deadline=None, max_examples=100)
@given(conv_identities(), st.integers(0, 30), st.booleans())
def test_verify_loop_decides_as_each_entry_and_leaves_no_tables(idents, n_max, symbolic):
    ex.clear_caches()
    got = _decisions(lambda: verdicts(idents, n_max, symbolic))
    assert ex._CONV_CACHE == {} and ex._CONV_PLAN == {}
    ex.clear_caches()
    in_order = sorted(idents, key=lambda i: i.id)
    assert got == _decisions(lambda: [verdict(i, n_max, symbolic) for i in in_order])
