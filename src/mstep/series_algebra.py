"""Exact polynomial and rational-function arithmetic over the rationals.

This is the proof engine behind every generating-function identity in the
package: dense polynomials whose coefficients are ``int`` wherever the value
is an integer and ``fractions.Fraction`` only where it is not, a canonical
rational-function type whose structural equality coincides with
mathematical equality, extended Euclid (Bezout certificates) for partial
fractions, Taylor-coefficient extraction, and the x -> -x substitution used
by the alternating-sum identities.

Polynomial gcds are fraction-free: the primitive polynomial remainder
sequence (Collins 1967; Brown & Traub 1971) takes integer pseudo-remainders
and divides out their content after every step.

Canonical form of a rational function N/D:

* gcd(N, D) = 1 (polynomial gcd divided out),
* all coefficients integral with gcd of the joint contents equal to 1,
* the lowest-order nonzero coefficient of D is positive.

With that normalization two RatFun values are equal as mathematical
functions iff they are equal structurally.

Sums and products reduce the way Henrici reduces fractions (Henrici,
J. ACM 3, 1956; Knuth, TAOCP Vol. 2, Sec. 4.5.1): a/b + c/d takes
g = gcd(b, d) (none when b == d) and h = gcd(t, g) for t = a(d/g) + c(b/g),
giving (t/h) / ((b/g)(d/h)); a/b * c/d cancels gcd(a, d) and gcd(c, b),
skipping each when one side is constant.  Neither takes the gcd of the
full cross product, and the result, already in lowest terms, is built by
the private ``RatFun._coprime``.

Index shifts take no gcd.  For a power series f = N/D (D(0) != 0, so x is
coprime to D), ``shift_series(f, s)``, the GF of n -> f_{n+s}, is x^|s| N/D
for s < 0 and (N - P D)/(x^s D) for s > 0, with P = f_0 + ... + f_{s-1}
x^(s-1); both are in lowest terms since gcd(N - P D, D) = gcd(N, D) = 1.
The module imports nothing from the package: ``gf_of`` reads a spec's
``coeffs`` and ``seeds`` only, so it and ``sequences`` are independent.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _coeff(c):
    """c as an int when its value is integral, else as a Fraction."""
    if type(c) is int:
        return c
    if not isinstance(c, Fraction):
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _div(a, b):
    """Exact quotient a/b as an int or a Fraction (``int / int`` is a float)."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if not r:
            return q
    return _coeff(Fraction(a, b))


def _integral(cs) -> list:
    """The coefficients times the lcm of their denominators, all ints."""
    den = 1
    for c in cs:
        if type(c) is not int:
            den = math.lcm(den, c.denominator)
    if den == 1:
        return list(cs)
    return [c * den if type(c) is int else c.numerator * (den // c.denominator) for c in cs]


class Poly:
    """Dense univariate polynomial; coeffs[k] is the coefficient of x^k.

    The coefficient list never has a trailing zero; the zero polynomial is
    the empty tuple (degree -1).  Integral coefficients are stored as int.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if type(c) is int else _coeff(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- construction helpers -------------------------------------------
    @staticmethod
    def const(c) -> "Poly":
        return Poly((c,))

    # -- basic structure -------------------------------------------------
    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __getitem__(self, k: int):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def valuation(self) -> int:
        """Index of the lowest nonzero coefficient (0 for the zero poly)."""
        for k, c in enumerate(self.coeffs):
            if c != 0:
                return k
        return 0

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    # -- ring operations --------------------------------------------------
    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return Poly(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Poly(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly(tuple(c * other for c in self.coeffs))
        if self.is_zero() or other.is_zero():
            return Poly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __divmod__(self, other):
        """Long division by the leading term; raises on a zero divisor."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dd, dv = len(rem) - 1, other.degree
        lead = other.coeffs[-1]
        quo = [0] * max(dd - dv + 1, 0)
        for k in range(dd - dv, -1, -1):
            c = _div(rem[k + dv], lead)
            if c:
                quo[k] = c
                for j, b in enumerate(other.coeffs):
                    rem[k + j] -= c * b
        return Poly(quo), Poly(rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def shift(self, k: int) -> "Poly":
        """Multiply by x^k (k >= 0)."""
        if self.is_zero():
            return self
        return Poly((0,) * k + self.coeffs)

    def derivative(self) -> "Poly":
        return Poly(tuple(k * c for k, c in enumerate(self.coeffs) if k))

    def substitute_neg(self) -> "Poly":
        """p(x) -> p(-x)."""
        return Poly(tuple(c if k % 2 == 0 else -c for k, c in enumerate(self.coeffs)))

    def primitive(self) -> "Poly":
        """Integral coefficients, content 1, lowest nonzero coefficient > 0."""
        if self.is_zero():
            return self
        cs = _integral(self.coeffs)
        g = math.gcd(*cs)
        if cs[self.valuation()] < 0:
            g = -g
        if g == 1:
            return Poly(cs)
        return Poly([c // g for c in cs])

    # -- rendering ---------------------------------------------------------
    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            elif mag == 1:
                body = "x" if k == 1 else f"x^{k}"
            else:
                body = f"{mag}*x" if k == 1 else f"{mag}*x^{k}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self):
        return f"Poly({self})"


P_ZERO = Poly()
P_ONE = Poly((1,))


def _prem(a: Poly, b: Poly) -> Poly:
    """Pseudo-remainder of integral a by integral b, up to a nonzero integer
    factor: each step scales by lead(b)/g rather than lead(b), where g is the
    gcd of lead(b) and the coefficient being cancelled."""
    r = list(a.coeffs)
    bs = b.coeffs
    db = len(bs) - 1
    lead = bs[-1]
    for top in range(len(r) - 1, db - 1, -1):
        c = r.pop()
        if not c:
            continue
        g = math.gcd(c, lead)
        cl, cc = lead // g, c // g
        if cl != 1:
            r = [cl * x for x in r]
        k = top - db
        for j in range(db):
            r[k + j] -= cc * bs[j]
    return Poly(r)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Gcd by primitive PRS, normalized primitive with positive lowest coefficient."""
    a, b = a.primitive(), b.primitive()
    if a.degree < b.degree:
        a, b = b, a
    while not b.is_zero():
        a, b = b, _prem(a, b).primitive()
    return a


def bezout(a: Poly, b: Poly):
    """Extended Euclid: returns (u, v, g) with u*a + v*b = g = gcd(a, b).

    When both a/g and b/g are nonconstant the certificate is reduced so that
    deg u < deg b - deg g and deg v < deg a - deg g.
    """
    if a.is_zero() and b.is_zero():
        raise ValueError("bezout of two zero polynomials")
    r0, r1 = a, b
    u0, u1 = P_ONE, P_ZERO
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
    g = r0.primitive()
    low = g.valuation()
    u = u0 * _div(g.coeffs[low], r0.coeffs[low])
    # Reduce u modulo b/g so the degree bounds hold, then recover v exactly.
    bq = b // g
    if bq.degree > 0:
        u = u % bq
    if b.is_zero():
        v = P_ZERO
    else:
        v = (g - u * a) // b
    return u, v, g


class NotAPowerSeries(ValueError):
    """Raised when expanding a rational function with den(0) = 0."""


class RatFun:
    """Canonical rational function num/den over the rationals."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=P_ONE):
        if not isinstance(num, Poly):
            num = Poly.const(num) if isinstance(num, (int, Fraction)) else Poly(num)
        if not isinstance(den, Poly):
            den = Poly.const(den) if isinstance(den, (int, Fraction)) else Poly(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if den.degree > 0 and not num.is_zero():
            g = poly_gcd(num, den)
            if g.degree > 0:
                num, den = num // g, den // g
        self._store(num, den)

    @classmethod
    def _coprime(cls, num: Poly, den: Poly) -> "RatFun":
        """num/den for a pair already in lowest terms (gcd(num, den) = 1,
        den nonzero): no gcd, only the integral, content and sign steps."""
        self = object.__new__(cls)
        self._store(num, den)
        return self

    def _store(self, num: Poly, den: Poly) -> None:
        # Clear denominators jointly, then divide out the joint integer
        # content, signed so that den's lowest coefficient is positive.
        if num.is_zero():
            num, den = P_ZERO, P_ONE
        else:
            split = len(num.coeffs)
            cs = _integral(num.coeffs + den.coeffs)
            c = math.gcd(*cs)
            if cs[split + den.valuation()] < 0:
                c = -c
            if c != 1:
                cs = [x // c for x in cs]
            num, den = Poly(cs[:split]), Poly(cs[split:])
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    # -- structure ----------------------------------------------------------
    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    def as_polynomial(self) -> Poly:
        if not self.is_polynomial():
            raise ValueError(f"not a polynomial: {self}")
        return self.num * Fraction(1, self.den.coeffs[0])

    def __eq__(self, other):
        return isinstance(other, RatFun) and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    # -- field operations -----------------------------------------------------
    def __add__(self, other):
        # Henrici: only gcd(b, d) and gcd(t, g) are taken, never the gcd of
        # the full cross product a*d + c*b over b*d.
        other = _as_ratfun(other)
        a, b, c, d = self.num, self.den, other.num, other.den
        if b == d:
            g, bg, dg = b, P_ONE, P_ONE
        else:
            g = poly_gcd(b, d) if b.degree > 0 and d.degree > 0 else P_ONE
            bg, dg = (b // g, d // g) if g.degree > 0 else (b, d)
        t = a * dg + c * bg
        if t and g.degree > 0:
            h = poly_gcd(t, g)
            if h.degree > 0:
                t, d = t // h, d // h
        return RatFun._coprime(t, bg * d)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-_as_ratfun(other))

    def __rsub__(self, other):
        return _as_ratfun(other) + (-self)

    def __neg__(self):
        return RatFun._coprime(-self.num, self.den)

    def __mul__(self, other):
        # Cancel across: gcd(a, d) and gcd(c, b), each skipped when one side
        # is a constant, so the product needs no further gcd.
        other = _as_ratfun(other)
        a, b, c, d = self.num, self.den, other.num, other.den
        if a.is_zero() or c.is_zero():
            return RatFun._coprime(P_ZERO, P_ONE)
        a, d = _cancel(a, d)
        c, b = _cancel(c, b)
        return RatFun._coprime(a * c, b * d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_ratfun(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return self * RatFun._coprime(other.den, other.num)

    def __rtruediv__(self, other):
        return _as_ratfun(other) / self

    def substitute_neg(self) -> "RatFun":
        """f(x) -> f(-x); x -> -x keeps num and den coprime."""
        return RatFun._coprime(self.num.substitute_neg(), self.den.substitute_neg())

    def derivative(self) -> "RatFun":
        return RatFun(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    # -- rendering ---------------------------------------------------------------
    def __str__(self):
        num, den = self.num, self.den
        if den == P_ONE:
            return str(num)
        ns = str(num)
        if len([c for c in num.coeffs if c != 0]) > 1:
            ns = f"({ns})"
        ds = str(den)
        if len([c for c in den.coeffs if c != 0]) > 1 or den.degree > 0:
            ds = f"({ds})"
        return f"{ns}/{ds}"

    def __repr__(self):
        return f"RatFun({self})"


def _cancel(p: Poly, q: Poly) -> tuple:
    """(p/g, q/g) with g = gcd(p, q); no gcd when either is a constant."""
    if p.degree > 0 and q.degree > 0:
        g = poly_gcd(p, q)
        if g.degree > 0:
            return p // g, q // g
    return p, q


def _as_ratfun(x) -> RatFun:
    if isinstance(x, RatFun):
        return x
    if isinstance(x, Poly):
        return RatFun(x)
    return RatFun(Poly.const(x))


def agrees_from(f: RatFun, g, n0: int) -> bool:
    """True iff the power series f and g agree at every x^n with n >= n0.

    That holds exactly when f - g is zero or a polynomial of degree < n0.
    This is the package's one rule for "these two sides agree from n0 on":
    catalog proofs, kernel checks and closed-form equivalence all end here.
    """
    g = _as_ratfun(g)
    if f == g:  # canonical forms: no subtraction needed
        return True
    diff = f - g
    return diff.is_polynomial() and diff.num.degree < n0


def series_coeffs(f: RatFun, count: int) -> list:
    """First ``count`` Taylor coefficients of f around 0, exact.

    Requires den(0) != 0, i.e. f must be a formal power series.
    """
    return series_divide(f.num.coeffs, f.den, count)


def series_divide(num, den: Poly, count: int) -> list:
    """First ``count`` Taylor coefficients of num/den around 0, exact.

    ``num`` is a coefficient list, zero past its end.  Requires
    den(0) != 0.  Each coefficient costs one product per nonzero
    coefficient of den beyond the constant one.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    d0 = den[0]
    if d0 == 0:
        raise NotAPowerSeries(f"den(0) = 0 in {den}")
    tail = [(k, dk) for k, dk in enumerate(den.coeffs) if k and dk]
    size = len(num)
    out = []
    for n in range(count):
        acc = num[n] if n < size else 0
        for k, dk in tail:
            if k > n:
                break
            acc -= dk * out[n - k]
        out.append(_div(acc, d0))
    return out


def shift_series(f: RatFun, s: int) -> RatFun:
    """GF of n -> f_{n+s}, one-sided (f_k = 0 for k < 0), without a gcd;
    raises NotAPowerSeries when den(0) = 0."""
    num, den = f.num, f.den
    if den[0] == 0:
        raise NotAPowerSeries(f"den(0) = 0 in {den}")
    if s <= 0:
        return RatFun._coprime(num.shift(-s), den)
    num = num - Poly(series_coeffs(f, s)) * den
    return RatFun._coprime(Poly(num.coeffs[s:]), den)


# (spec, shift) -> GF of n -> a_{n+shift}; shift 0 is gf_of.  Unbounded:
# every shift asked for stays until expressions.clear_caches().
_GFS: dict = {}


def gf_of(spec) -> RatFun:
    """Ordinary generating function of a ``sequences.RecurrenceSpec``,
    built once per process and kept in ``_GFS``.

    Denominator D = 1 - sum(c_j x^j); numerator (seeds * D) mod x^len(seeds),
    so that the series coefficients reproduce the sequence exactly.
    """
    g = _GFS.get((spec, 0))
    if g is None:
        den = Poly([1] + [-c for c in spec.coeffs])
        num = (Poly(spec.seeds) * den).coeffs[:len(spec.seeds)]
        g = _GFS[(spec, 0)] = RatFun(Poly(num), den)
    return g


def shifted_gf(spec, shift: int) -> RatFun:
    """Generating function of n -> a_{n+shift} under the one-sided convention,
    ``shift_series`` of ``gf_of(spec)``, built once per (spec, shift) and kept
    in ``_GFS``.  Its denominator is exactly ``gf_of(spec).den``: for an
    integer spec that denominator is integral with constant term 1, so the
    shift changes only the numerator."""
    g = _GFS.get((spec, shift))
    if g is None:
        g = _GFS[(spec, shift)] = shift_series(gf_of(spec), shift)
    return g


def combo_gf(spec, combo: dict) -> RatFun:
    """Generating function of n -> sum_s combo[s] * a_{n+s}, one-sided: one
    sum of the shifted numerators over their common denominator."""
    num = P_ZERO
    for s, c in combo.items():
        num = num + shifted_gf(spec, s).num * c
    return RatFun(num, gf_of(spec).den)
