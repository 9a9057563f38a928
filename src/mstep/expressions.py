"""Expression trees over a sequence index n, with exact evaluation and
compilation to rational generating functions.

Node kinds
----------
``Term(seq, shift)``      seq_{n+shift} (one-sided: negative indices are 0)
``NPoly(coeffs)``         polynomial in n with rational coefficients
``Alt(offset)``           (-1)^(n+offset)
``Geo2(offset)``          2^(n+offset)
``Const(value)``          a constant
``Sum(terms)``            pointwise sum
``Product(factors)``      pointwise product
``Scale(factor, child)``  rational multiple
``ConvAtom(kernels, c)``  sum over the len(kernels)-simplex of size n+c of
                          the product of the kernels, each evaluated at its
                          own index; for a single kernel this is the bounded
                          partial sum sum_{j=0}^{n+c} kernel(j).

Nodes are named tuples compared by type and fields: a node equals only a
node of the same kind with equal fields (``Alt(0) != Geo2(0)``, and no node
equals a plain tuple), and hashes as the tuple of its fields.
``_conv_table`` sorts kernels by ``repr``, so that text orders its cache keys.

Evaluation is exact.  ``evaluate_range`` is the one evaluator: it
tabulates a whole prefix of values column by column and turns ConvAtoms
into memoised convolution tables (columns are not memoised);
``evaluate(expr, n)`` is a view of it with a memo of the root column.
A Sum or Product column folds in one child's column at a time.  A table
multiplies in each further kernel through the denominator D of the
kernel's generating function (D = 1 when ``gf_of_expr`` raises
NotCompilable for it), or through (1-x)*D when that has fewer nonzero
coefficients, the choice ``sequences.sparser`` also makes for term
extension: with E = D*kernel, which has finite support when D is right,
the table is (table*E)/D, so it costs linear, not quadratic, time in its
length.
Every number (node scalars and column values alike) is an int when it is
integral and a Fraction only when it is not, while a GF's coefficients are
all ints (``series_algebra``).  Brute-force simplex enumeration lives only in
:mod:`mstep.convolution_oracle`.

``gf_of_expr`` compiles a tree to a RatFun, one rule per node kind, with
RatFun's gcd-free arithmetic, so the result need not be in lowest terms;
it raises :class:`NotCompilable` where the rational fragment ends:
a pointwise product with two non-scalar factors (e.g. F_n * T_n).  The
scalars Const, Alt and NPoly share one rule, alone or in a Product: from
the GF of the one other factor, or 1/(1-x) when there is none, apply Const
and Alt in turn (c*g, +-g(-x)), then the product p of the NPoly factors
(a_n -> p(n) a_n) as one linear map p(x d/dx) over D r^deg(p), where D is
the denominator and r its squarefree part; it takes one gcd, gcd(D, D').
A ``Sum`` adds the numerators of children over one denominator, then adds
these groups over the lcm of their denominators, one gcd per group past
the first, so ``identity_catalog.den_degree`` bounds the result's
denominator; these are compilation's only gcds.
Process-wide memos: ``sequences._HANDLES`` (terms), ``_CONV_CACHE``,
``_RANGE_CACHE`` and ``series_algebra._GFS`` (GFs); :func:`clear_caches`
empties all four.  Only ``_CONV_CACHE`` is bounded, and only inside
:func:`planned`, the one owner of a loop's table lifetimes
(``identity_catalog.verdicts`` runs over it): it plans every table, so
``_conv_table`` builds each kernel tuple once, at its longest use, drops
the table after its last user and leaves no table on any exit.

This module knows only trees.  Their JSON form, the number rule and the
caps on a manifest's trees live in :mod:`mstep.identity_catalog`.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from fractions import Fraction
from itertools import accumulate

from .sequences import _HANDLES, handle, resolve, sparser
from .series_algebra import (
    P_ONE,
    Poly,
    _GFS,
    RatFun,
    _coeff,
    _div,
    integral,
    poly_gcd,
    series_divide,
    shift_series,
    shifted_gf,
)


class SeqExpr:
    """Base class for expression nodes: equal by type and fields."""

    __slots__ = ()

    def __eq__(self, other):
        return type(self) is type(other) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__


def _node(name: str, fields: str, defaults=()) -> type:
    """A node class: a named tuple of ``fields`` that is a SeqExpr."""
    return type(name, (SeqExpr, namedtuple(name, fields, defaults=defaults)), {"__slots__": ()})


Term = _node("Term", "seq shift", (0,))  # seq: a name ``resolve`` knows, or a RecurrenceSpec
NPoly = _node("NPoly", "coeffs")  # ascending powers of n
Alt = _node("Alt", "offset", (0,))
Geo2 = _node("Geo2", "offset", (0,))
Const = _node("Const", "value")
Sum = _node("Sum", "terms")
Product = _node("Product", "factors")
Scale = _node("Scale", "factor child")
ConvAtom = _node("ConvAtom", "kernels offset", (0,))


# -- builders ----------------------------------------------------------------

term, alt, geo2 = Term, Alt, Geo2


def npoly(*coeffs) -> NPoly:
    return NPoly(tuple(_coeff(c) for c in coeffs))


def const(value) -> Const:
    return Const(_coeff(value))


def add(*terms) -> SeqExpr:
    if not terms:
        raise ValueError("a sum needs at least one term")
    flat = []
    for t in terms:
        if isinstance(t, Sum):
            flat.extend(t.terms)
        else:
            flat.append(t)
    if len(flat) == 1:
        return flat[0]
    return Sum(tuple(flat))


def sub(a: SeqExpr, b: SeqExpr) -> SeqExpr:
    return add(a, scale(-1, b))


def mul(*factors) -> SeqExpr:
    if not factors:
        raise ValueError("a product needs at least one factor")
    flat = []
    for f in factors:
        if isinstance(f, Product):
            flat.extend(f.factors)
        else:
            flat.append(f)
    if len(flat) == 1:
        return flat[0]
    return Product(tuple(flat))


def scale(factor, child: SeqExpr) -> SeqExpr:
    factor = _coeff(factor)
    if factor == 1:
        return child
    if isinstance(child, Scale):
        return Scale(_coeff(factor * child.factor), child.child)
    return Scale(factor, child)


def conv(*kernels, offset: int = 0) -> ConvAtom:
    if not kernels:
        raise ValueError("a convolution needs at least one kernel")
    return ConvAtom(tuple(kernels), offset)


# -- evaluation ----------------------------------------------------------------

def evaluate(expr: SeqExpr, n: int):
    """Exact value at index n >= 0: an int when integral, else a Fraction.

    A view of :func:`evaluate_range` that memoises the root column in
    ``_RANGE_CACHE``; a column too short for n is at least doubled, so
    evaluating n = 0, 1, 2, ... in turn costs linear time, not quadratic.
    """
    if n < 0:
        raise ValueError(f"index {n} is negative")
    cached = _RANGE_CACHE.get(expr, ())
    if len(cached) <= n:
        cached = evaluate_range(expr, max(n + 1, 2 * len(cached)))
        _RANGE_CACHE[expr] = cached
    return cached[n]


_RANGE_CACHE: dict = {}  # root columns of pointwise evaluate
_CONV_CACHE: dict = {}  # convolution tables, shared across trees
_CONV_PLAN: dict = {}  # kernel key -> table length to build, set only inside ``planned``


def clear_caches() -> None:
    """Empty all four process-wide memos: columns, tables, GFs and terms."""
    _RANGE_CACHE.clear()
    _CONV_CACHE.clear()
    _GFS.clear()
    _HANDLES.clear()


def evaluate_range(expr: SeqExpr, length: int) -> list:
    """Values at n = 0 .. length-1 as a new list; only conv tables are memoised."""
    if isinstance(expr, Term):
        h = handle(expr.seq)
        s = expr.shift
        if s >= 0:
            return h.values(length + s)[s:]
        vals = h.values(max(length + s, 0))
        return [0] * min(-s, length) + vals
    if isinstance(expr, NPoly):
        cs = tuple(enumerate(expr.coeffs))
        return [_coeff(sum(c * n ** k for k, c in cs)) for n in range(length)]
    if isinstance(expr, Alt):
        return [1 if (n + expr.offset) % 2 == 0 else -1 for n in range(length)]
    if isinstance(expr, Geo2):
        ks = range(expr.offset, expr.offset + length)
        return [1 << k if k >= 0 else Fraction(1, 1 << -k) for k in ks]
    if isinstance(expr, Const):
        return [expr.value] * length
    if isinstance(expr, (Sum, Product)):
        # fold one child at a time, so a wide node holds two columns, not all
        is_sum = isinstance(expr, Sum)
        op = operator.add if is_sum else operator.mul
        first, *rest = expr.terms if is_sum else expr.factors
        acc = evaluate_range(first, length)
        for child in rest:
            acc = list(map(op, acc, evaluate_range(child, length)))
        return [v if type(v) is int else _coeff(v) for v in acc]
    if isinstance(expr, Scale):
        f, col = expr.factor, evaluate_range(expr.child, length)
        if type(f) is int:
            return [f * v if type(v) is int else _coeff(f * v) for v in col]
        p, q = f.numerator, f.denominator
        return [_div(p * v, q) if type(v) is int else _coeff(f * v) for v in col]
    if isinstance(expr, ConvAtom):
        c = expr.offset
        top = length - 1 + c
        if top < 0:
            return [0] * length
        return [0] * max(-c, 0) + _conv_table(expr.kernels, top + 1)[max(c, 0):top + 1]
    raise TypeError(f"not a SeqExpr: {expr!r}")


def _conv_key(kernels: tuple) -> tuple:
    """The cache key of a kernel tuple: kernel order does not matter."""
    return tuple(sorted(kernels, key=repr))


def _table_reads(expr: SeqExpr, length: int):
    """Yield (kernel key, table length) for each table that
    ``evaluate_range(expr, length)`` reads, including the tables its
    kernels read at the outer table's length."""
    if isinstance(expr, ConvAtom):
        length += expr.offset  # the table length, top + 1
        if length <= 0:
            return
        yield _conv_key(expr.kernels), length
    for child in expr:
        if isinstance(child, tuple):  # a node or a tuple of nodes
            yield from _table_reads(child, length)


def planned(groups, length: int):
    """Yield the index of each group of trees (a tuple) in turn, while the
    caller evaluates that group at ``length``.

    Each kernel tuple is built once, at the longest length any group reads
    (``_CONV_PLAN``), and leaves ``_CONV_CACHE`` when the caller asks for
    the index after its last reader's.  Closing the generator, on a normal
    or a raised exit, drops the plan and every planned table.
    """
    groups = list(groups)
    drops = [[] for _ in groups]  # index -> the keys it reads last
    try:
        for k in reversed(range(len(groups))):  # so the first reader met is the last
            for tree in groups[k]:
                for key, n in _table_reads(tree, length):
                    if key not in _CONV_PLAN:
                        drops[k].append(key)
                    _CONV_PLAN[key] = max(_CONV_PLAN.get(key, 0), n)
        for k, keys in enumerate(drops):
            yield k
            for key in keys:
                _CONV_CACHE.pop(key, None)  # unbuilt when a GF proof decided
    finally:
        for key in _CONV_PLAN:
            _CONV_CACHE.pop(key, None)
        _CONV_PLAN.clear()


def _conv_table(kernels: tuple, length: int) -> list:
    """Simplex-sum table for a kernel tuple: table[b] = sum over K(l, b).

    For one kernel this is the running partial sum.  A table is built at
    the longer of ``length`` and its planned length in ``_CONV_PLAN``.
    """
    key = _conv_key(kernels)
    cached = _CONV_CACHE.get(key)
    if cached is not None and len(cached) >= length:
        return cached
    length = max(length, _CONV_PLAN.get(key, 0))
    if len(key) == 1:
        out = [_coeff(v) for v in accumulate(evaluate_range(key[0], length))]
    else:
        out = evaluate_range(key[0], length)
        for kern in key[1:]:
            try:
                den = gf_of_expr(kern).den
            except NotCompilable:
                den = P_ONE
            out = _convolve(out, evaluate_range(kern, length), Poly(sparser(den.coeffs)))
    _CONV_CACHE[key] = out
    return out


def _convolve(a: list, b: list, den: Poly) -> list:
    """The first len(a) coefficients of the product series a*b.

    Computed as (a*E)/den mod x^len(a) with E = den*b, which is exact for
    any den with den(0) != 0; den only decides the cost.  When den is the
    denominator of b's generating function, E has finite support and the
    work is linear in the length; den = 1 makes E = b, the direct sum.
    Both products are built slice-wise, one pass over the column per
    nonzero coefficient of den and of E.
    """
    length = len(a)
    e = [0] * length
    for i, d in enumerate(den.coeffs):
        if d:
            e[i:] = [x + d * y for x, y in zip(e[i:], b)]
    num = [0] * length
    for k, ek in enumerate(e):
        if ek:
            ek = _coeff(ek)
            num[k:] = [x + ek * y for x, y in zip(num[k:], a)]
    return series_divide(num, den, length)


# -- compilation to generating functions -----------------------------------------


class NotCompilable(ValueError):
    """Raised by gf_of_expr where the rational fragment ends: a pointwise
    product with two non-scalar factors.  It prints as NotCompilable('<reason>')."""

    def __init__(self, reason: str = ""):
        super().__init__(reason)
        self.reason = reason

    __str__ = ValueError.__repr__


_RF_ONES = RatFun(P_ONE, Poly((1, -1)))  # 1/(1-x)
_SCALARS = (Const, Alt, NPoly)  # pointwise factors that rescale a_n by a function of n


def _apply_npoly(p: Poly, g: RatFun) -> RatFun:
    # p(x d/dx) g turns a_n into p(n) a_n.  For g = N/D with D = r*s, s = gcd(D, D'),
    # (x d/dx)^k g = P_k/(D r^k): P_0 = N, P_(k+1) = x(P_k' r - P_k (D'/s + k r')).
    # The result, the Horner sum of p_k P_k r^(L-k) over D r^L, L = deg p, is
    # stored as given, with no gcd; it is in lowest terms when g is (each power
    # raises every pole's order by one).
    n, d, dd = g.num, g.den, g.den.derivative()
    s = poly_gcd(d, dd)
    r, e = d // s, dd // s
    acc, den = Poly(), s
    for k, c in enumerate(p.coeffs):
        if k:
            n = (r * n.derivative() - (e + r.derivative() * (k - 1)) * n).shift(1)
        acc, den = r * acc + n * c, r * den
    return RatFun(acc, den)


def gf_of_expr(expr: SeqExpr) -> RatFun:
    """Compile to a RatFun, not always in lowest terms (module docstring).
    Raises NotCompilable outside the rational fragment and TypeError on a
    value that is not a node."""
    if isinstance(expr, Term):
        return shifted_gf(resolve(expr.seq), expr.shift)
    if isinstance(expr, Geo2):
        return RatFun(Fraction(2) ** expr.offset, Poly((1, -2)))
    if isinstance(expr, Sum):
        groups: dict = {}  # denominator -> the sum of the children's numerators over it
        for t in expr.terms:
            g = gf_of_expr(t)
            groups[g.den] = groups[g.den] + g.num if g.den in groups else g.num
        (den, num), *rest = groups.items()
        for d, n in rest:  # over lcm(den, d), one gcd unless one side is a constant
            g = poly_gcd(den, d) if den.degree > 0 and d.degree > 0 else P_ONE
            dg, deng = (d // g, den // g) if g.degree > 0 else (d, den)
            num, den = num * dg + n * deng, den * dg
        return RatFun(num, den)
    if isinstance(expr, Scale):
        return expr.factor * gf_of_expr(expr.child)
    if isinstance(expr, ConvAtom):
        gfs = [gf_of_expr(k) for k in expr.kernels]
        s = math.prod(gfs[1:], start=gfs[0]) if len(gfs) > 1 else gfs[0] * _RF_ONES
        return shift_series(s, expr.offset)
    if not isinstance(expr, (Product, *_SCALARS)):
        raise TypeError(f"not a SeqExpr: {expr!r}")
    factors = expr.factors if isinstance(expr, Product) else (expr,)
    bases = [f for f in factors if not isinstance(f, _SCALARS)]
    if len(bases) > 1:
        raise NotCompilable("pointwise product of two non-scalar sequences")
    g = gf_of_expr(bases[0]) if bases else _RF_ONES
    p = P_ONE  # the product of the NPoly factors, a polynomial in n
    for f in factors:
        if isinstance(f, Const):
            g = f.value * g
        elif isinstance(f, Alt):
            g = g.substitute_neg() if f.offset % 2 == 0 else -g.substitute_neg()
        elif isinstance(f, NPoly):  # q(n)/L with q integral: 1/L scales g, q joins p
            q, den = integral(f.coeffs)
            p, g = p * q, g if den == 1 else g * Fraction(1, den)
    return g if p == P_ONE else _apply_npoly(p, g)
