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

Evaluation is exact.  ``evaluate_range`` is the one evaluator: it
tabulates a whole prefix of values column by column and turns ConvAtoms
into memoised convolution tables (columns are not memoised);
``evaluate(expr, n)`` is a view of it with a memo of the root column.
A table multiplies in each further kernel through the denominator D of
the kernel's generating function (D = 1 when it does not compile): with
E = D*kernel, which has finite support when D is right, the table is
(table*E)/D, so it costs linear, not quadratic, time in its length.
Every number (node scalars and column values alike) is an int when it is
integral and a Fraction only when it is not, the rule of
``series_algebra``.  Brute-force simplex enumeration lives only in
:mod:`mstep.convolution_oracle`.

``gf_of_expr`` compiles a tree to a canonical RatFun where possible;
expressions outside the rational fragment (e.g. the pointwise product of
two recurrence sequences) yield a :class:`NotCompilable` value instead.
Process-wide memos: ``sequences._HANDLES`` (terms), ``_CONV_CACHE``,
``_RANGE_CACHE`` and ``series_algebra._GFS`` (GFs).  None is bounded;
:func:`clear_caches` empties all four.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .sequences import _HANDLES, handle, resolve
from .series_algebra import (
    P_ONE,
    Poly,
    _GFS,
    RatFun,
    _coeff,
    series_divide,
    shift_series,
    shifted_gf,
)


class SeqExpr:
    """Base class for expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Term(SeqExpr):
    seq: str
    shift: int = 0


@dataclass(frozen=True)
class NPoly(SeqExpr):
    coeffs: tuple  # ascending powers of n


@dataclass(frozen=True)
class Alt(SeqExpr):
    offset: int = 0


@dataclass(frozen=True)
class Geo2(SeqExpr):
    offset: int = 0


@dataclass(frozen=True)
class Const(SeqExpr):
    value: int | Fraction


@dataclass(frozen=True)
class Sum(SeqExpr):
    terms: tuple


@dataclass(frozen=True)
class Product(SeqExpr):
    factors: tuple


@dataclass(frozen=True)
class Scale(SeqExpr):
    factor: int | Fraction
    child: SeqExpr


@dataclass(frozen=True)
class ConvAtom(SeqExpr):
    kernels: tuple
    offset: int = 0


# -- builders ----------------------------------------------------------------

def term(seq: str, shift: int = 0) -> Term:
    return Term(seq, shift)


def npoly(*coeffs) -> NPoly:
    return NPoly(tuple(_coeff(c) for c in coeffs))


def alt(offset: int = 0) -> Alt:
    return Alt(offset)


def geo2(offset: int = 0) -> Geo2:
    return Geo2(offset)


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
    if isinstance(expr, Sum):
        cols = [evaluate_range(t, length) for t in expr.terms]
        return [_coeff(sum(vs)) for vs in zip(*cols)]
    if isinstance(expr, Product):
        cols = [evaluate_range(f, length) for f in expr.factors]
        return [_coeff(math.prod(vs)) for vs in zip(*cols)]
    if isinstance(expr, Scale):
        f = expr.factor
        return [_coeff(f * v) for v in evaluate_range(expr.child, length)]
    if isinstance(expr, ConvAtom):
        c = expr.offset
        top = length - 1 + c
        if top < 0:
            return [0] * length
        table = _conv_table(expr.kernels, top + 1)
        return [table[n + c] if n + c >= 0 else 0 for n in range(length)]
    raise TypeError(f"not a SeqExpr: {expr!r}")


def _conv_table(kernels: tuple, length: int) -> list:
    """Simplex-sum table for a kernel tuple: table[b] = sum over K(l, b).

    For one kernel this is the running partial sum.  Kernel order does not
    matter, so the cache key is the sorted tuple.
    """
    key = tuple(sorted(kernels, key=repr))
    cached = _CONV_CACHE.get(key)
    if cached is not None and len(cached) >= length:
        return cached
    if len(key) == 1:
        out = [_coeff(v) for v in accumulate(evaluate_range(key[0], length))]
    else:
        out = evaluate_range(key[0], length)
        for kern in key[1:]:
            hint = gf_of_expr(kern)
            den = P_ONE if isinstance(hint, NotCompilable) else hint.den
            out = _convolve(out, evaluate_range(kern, length), den)
    _CONV_CACHE[key] = out
    return out


def _convolve(a: list, b: list, den: Poly) -> list:
    """The first len(a) coefficients of the product series a*b.

    Computed as (a*E)/den mod x^len(a) with E = den*b, which is exact for
    any den with den(0) != 0; den only decides the cost.  When den is the
    denominator of b's generating function, E has finite support and the
    work is linear in the length; den = 1 makes E = b, the direct sum.
    """
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
    return series_divide(num, den, length)


# -- compilation to generating functions -----------------------------------------


class NotCompilable:
    """Returned by gf_of_expr for expressions outside the rational fragment."""

    __slots__ = ("reason",)

    def __init__(self, reason: str = ""):
        self.reason = reason

    def __repr__(self):
        return f"NotCompilable({self.reason!r})"

    def __bool__(self):
        return False


_RF_ONES = RatFun(P_ONE, Poly((1, -1)))  # 1/(1-x)


def _apply_npoly(coeffs: tuple, g: RatFun) -> RatFun:
    # sum_i c_i * (x d/dx)^i applied to g turns coefficients a_n into p(n) a_n.
    acc = RatFun(Poly.const(coeffs[0])) * g if coeffs else RatFun(Poly())
    power = g
    for c in coeffs[1:]:
        power = shift_series(power.derivative(), -1)
        if c:
            acc = acc + RatFun(Poly.const(c)) * power
    return acc


def gf_of_expr(expr: SeqExpr):
    """Compile to a canonical RatFun, or return a NotCompilable value."""
    if isinstance(expr, Term):
        return shifted_gf(resolve(expr.seq), expr.shift)
    if isinstance(expr, NPoly):
        return _apply_npoly(expr.coeffs, _RF_ONES)
    if isinstance(expr, Alt):
        sign = 1 if expr.offset % 2 == 0 else -1
        return RatFun(Poly.const(sign), Poly((1, 1)))
    if isinstance(expr, Geo2):
        c = Fraction(2) ** expr.offset
        return RatFun(Poly.const(c), Poly((1, -2)))
    if isinstance(expr, Const):
        return RatFun(Poly.const(expr.value)) * _RF_ONES
    if isinstance(expr, Sum):
        acc = RatFun(Poly())
        for t in expr.terms:
            g = gf_of_expr(t)
            if isinstance(g, NotCompilable):
                return g
            acc = acc + g
        return acc
    if isinstance(expr, Scale):
        g = gf_of_expr(expr.child)
        if isinstance(g, NotCompilable):
            return g
        return RatFun(Poly.const(expr.factor)) * g
    if isinstance(expr, Product):
        return _compile_product(expr)
    if isinstance(expr, ConvAtom):
        return _compile_conv(expr)
    raise TypeError(f"not a SeqExpr: {expr!r}")


def _compile_product(expr: Product):
    scalar = Fraction(1)
    alt_count = 0
    alt_offset = 0
    n_poly = None
    bases = []
    for f in expr.factors:
        if isinstance(f, Const):
            scalar *= f.value
        elif isinstance(f, Alt):
            alt_count += 1
            alt_offset += f.offset
        elif isinstance(f, NPoly):
            n_poly = Poly(f.coeffs) if n_poly is None else n_poly * Poly(f.coeffs)
        else:
            bases.append(f)
    if len(bases) > 1:
        return NotCompilable("pointwise product of two non-scalar sequences")
    if bases:
        g = gf_of_expr(bases[0])
        if isinstance(g, NotCompilable):
            return g
    else:
        g = _RF_ONES
    if alt_count % 2 == 1:
        g = g.substitute_neg()
    if alt_offset % 2 == 1:
        scalar = -scalar
    if n_poly is not None:
        g = _apply_npoly(n_poly.coeffs, g)
    if scalar != 1:
        g = RatFun(Poly.const(scalar)) * g
    return g


def _compile_conv(expr: ConvAtom):
    gfs = []
    for k in expr.kernels:
        g = gf_of_expr(k)
        if isinstance(g, NotCompilable):
            return g
        gfs.append(g)
    if len(gfs) == 1:
        s = gfs[0] * _RF_ONES
    else:
        s = gfs[0]
        for g in gfs[1:]:
            s = s * g
    return shift_series(s, expr.offset)


# -- JSON serialization ---------------------------------------------------------------


def expr_to_json(expr: SeqExpr):
    if isinstance(expr, Term):
        return ["term", expr.seq, expr.shift]
    if isinstance(expr, NPoly):
        return ["npoly", [str(c) for c in expr.coeffs]]
    if isinstance(expr, Alt):
        return ["alt", expr.offset]
    if isinstance(expr, Geo2):
        return ["geo2", expr.offset]
    if isinstance(expr, Const):
        return ["const", str(expr.value)]
    if isinstance(expr, Sum):
        return ["sum"] + [expr_to_json(t) for t in expr.terms]
    if isinstance(expr, Product):
        return ["product"] + [expr_to_json(f) for f in expr.factors]
    if isinstance(expr, Scale):
        return ["scale", str(expr.factor), expr_to_json(expr.child)]
    if isinstance(expr, ConvAtom):
        return ["conv", [expr_to_json(k) for k in expr.kernels], expr.offset]
    raise TypeError(f"not a SeqExpr: {expr!r}")


# Largest |shift| or |offset| expr_from_json accepts (the built-in catalog
# uses at most 13).  A column of seq_{n+s} for n < N reads N + s terms of up
# to about 0.7(N + s) bits, so memory grows like (N + s)^2.  At the cap, a
# manifest of term, geo2, alt and conv entries takes 0.18 s and 19.8 MB
# under `verify --all --max-n 2000` (18.2 MB at shift 0), 2-vCPU VM.
MAX_SHIFT = 1_000

# Deepest --manifest tree, a leaf being depth 1 (the catalog's deepest is 6).
# Evaluation and compilation recurse per level: a `sum` chain 500 deep
# exhausts Python's recursion limit, 64 stays far below it.
MAX_DEPTH = 64


def _shift(value) -> int:
    """A term shift or an alt/geo2/conv offset read from JSON, checked."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"shift or offset is not an int: {value!r}")
    if abs(value) > MAX_SHIFT:
        raise ValueError(f"shift or offset {value} exceeds the cap {MAX_SHIFT}")
    return value


def expr_from_json(node, depth: int = 1) -> SeqExpr:
    if depth > MAX_DEPTH:
        raise ValueError(f"expression tree deeper than the cap {MAX_DEPTH}")
    tag = node[0]
    if tag == "term":
        resolve(node[1])  # an unknown name fails at load, not at evaluation
        return Term(node[1], _shift(node[2]))
    if tag == "npoly":
        if not isinstance(node[1], list):
            raise ValueError(f"npoly operand is not a coefficient list: {node[1]!r}")
        return npoly(*node[1])
    if tag == "alt":
        return Alt(_shift(node[1]))
    if tag == "geo2":
        return Geo2(_shift(node[1]))
    if tag == "const":
        return const(node[1])
    if tag in ("sum", "product"):
        if len(node) < 2:
            raise ValueError(f"{tag} needs at least one operand")
        parts = tuple(expr_from_json(t, depth + 1) for t in node[1:])
        return Sum(parts) if tag == "sum" else Product(parts)
    if tag == "scale":
        return Scale(_coeff(node[1]), expr_from_json(node[2], depth + 1))
    if tag == "conv":
        return conv(*(expr_from_json(k, depth + 1) for k in node[1]), offset=_shift(node[2]))
    raise ValueError(f"unknown expression tag: {tag!r}")
