"""Exact polynomial and rational-function arithmetic over the integers.

This is the proof engine behind every generating-function identity in the
package: dense polynomials with ``int`` coefficients, a rational-function
type whose equality is mathematical equality, Bezout inverses for partial
fractions, Taylor-coefficient extraction, and the x -> -x substitution used
by the alternating-sum identities.  Every identity has integer recurrences,
so every GF is an integer polynomial over an integer polynomial.  Rationals
enter only through ``RatFun(num, den)`` (``integral`` clears a scalar's or a
coefficient list's denominators), and a ``Fraction`` scalar p/q multiplies
num by p and den by q.  Scalars, such as series values, are ``int`` where
integral and ``fractions.Fraction`` only where not.  Division stays in the
ring: ``prem`` is the one pseudo-remainder, ``//`` is exact over the integers,
and ``bezout``'s cofactor is integral with a separate scalar.

Polynomial gcds and Bezout inverses are fraction-free: one primitive
polynomial remainder sequence (Collins 1967; Brown & Traub 1971) takes
integer pseudo-remainders and divides out their content after every step.
Its coefficients grow to thousands of bits on dense operands, so
``poly_gcd`` first proves an image modulo p = 2^61 - 1 (Brown, J. ACM 18,
1971).  If p divides neither leading coefficient, g = gcd(a mod p, b mod p)
has deg g >= deg gcd(a, b).  A constant g proves gcd = 1; otherwise g, scaled
to lead gcd(lc a, lc b) and lifted to symmetric residues, has a primitive
part h of degree deg g, and h dividing both a and b proves h = gcd(a, b).
The PRS runs only when that proof fails: p divides a leading coefficient,
the prime is unlucky, or the gcd's coefficients do not fit 2^60.

Lowest terms are taken on demand.  ``RatFun(num, den)`` stores the pair
as given, and ``RatFun.lowest()`` is the one reducer, to the canonical
form of N/D:

* gcd(N, D) = 1 (polynomial gcd divided out),
* all coefficients integral with gcd of the joint contents equal to 1,
* the lowest-order nonzero coefficient of D is positive.

Two functions in that form are equal iff they are equal structurally.
``str`` and ``hash`` use it, so they do not depend on how a value was
built, and ``gf_of`` uses it, so a sequence's GF has the minimal
denominator.  Nothing else reduces: unlike Henrici's sums and products
(J. ACM 3, 1956), which reduce at every step, a/b + c/d is
(a d + c b)/(b d), or (a + c)/b when b == d, and a scalar multiplies the
numerator alone.  So a num and den need not be coprime, and every rule
that compares reads them through a cross product: a/b == c/d iff
a d == c b, and ``agrees_from`` divides a d - c b by b d.

Index shifts take no gcd.  For a power series f = N/D (D(0) != 0, so x is
coprime to D), ``shift_series(f, s)``, the GF of n -> f_{n+s}, is x^|s| N/D
for s < 0 and ((L N - P D)/x^s)/(L D) for s > 0, where P/L = f_0 + ... +
f_{s-1} x^(s-1) with P integral; L = 1, so the denominator stays D, when
D(0) = +-1.  Both are in lowest terms up to a scalar when N/D is, since
gcd(L N - P D, D) = gcd(N, D).

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


class Poly:
    """Dense univariate polynomial; coeffs[k] is the int coefficient of x^k.

    The coefficient list never has a trailing zero; the zero polynomial is
    the empty tuple (degree -1).  Rationals enter only through ``integral``.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

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
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):  # a scalar compares as a constant
            return self.coeffs == ((other,) if other else ())
        return NotImplemented

    def __hash__(self):
        # a constant hashes as its value, since it equals that scalar
        return hash(self.coeffs if len(self.coeffs) > 1 else self[0])

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
        if type(other) is int:
            return Poly(tuple(c * other for c in self.coeffs))
        if not isinstance(other, Poly):
            return NotImplemented
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

    def __floordiv__(self, other):
        """Exact quotient over the integers; raises ValueError on a non-divisor."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem, bs, r = list(self.coeffs), other.coeffs, 0
        quo = [0] * max(len(rem) - len(bs) + 1, 0)
        for k in reversed(range(len(quo))):
            quo[k], r = divmod(rem.pop(), bs[-1])
            if r:
                break
            rem[k:] = [x - quo[k] * y for x, y in zip(rem[k:], bs)]  # bs's lead cancelled the pop
        if r or any(rem):
            raise ValueError(f"{other} does not divide {self} over the integers")
        return Poly(quo)

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
        cs = self.coeffs
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


def integral(x):
    """(P, L) with x = P/L: an integral Poly P and an int L > 0, the lcm of
    the denominators, for x a scalar or a list of rational coefficients."""
    cs = (x,) if isinstance(x, (int, Fraction)) else tuple(x)
    den = math.lcm(*(c.denominator for c in cs))
    return Poly([c.numerator * (den // c.denominator) for c in cs]), den


def prem(a: Poly, b: Poly):
    """The one pseudo-remainder: (s, r) with s an int != 0, s*a = r (mod b)
    and deg r < deg b.  Each step scales by lead(b)/g rather than lead(b),
    where g is the gcd of lead(b) and the coefficient being cancelled; s is
    the product of those scales."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a.coeffs)
    bs = b.coeffs
    db = len(bs) - 1
    lead, s = bs[-1], 1
    for top in range(len(r) - 1, db - 1, -1):
        c = r.pop()
        if not c:
            continue
        g = math.gcd(c, lead)
        cl, cc = lead // g, c // g
        if cl != 1:
            r = [cl * x for x in r]
            s *= cl
        k = top - db
        for j in range(db):
            r[k + j] -= cc * bs[j]
    return s, Poly(r)


def _prs(a: Poly, b: Poly, w: int) -> Poly:
    """Primitive PRS of integral a, b: the last a before deg b drops below w."""
    while b.degree >= w:
        a, b = b, prem(a, b)[1].primitive()
    return a


_P = (1 << 61) - 1  # poly_gcd's one prime: residues fit a word


def _gcd_mod_p(a: tuple, b: tuple):
    """Euclid over GF(_P): the last nonzero remainder of a and b, or None
    when _P divides a leading coefficient (module docstring)."""
    p = _P
    r, s = [c % p for c in a], [c % p for c in b]
    if not (r[-1] and s[-1]):
        return None
    while len(s) > 1:
        inv, ds = pow(s[-1], -1, p), len(s) - 1
        for top in range(len(r) - 1, ds - 1, -1):
            q = r.pop() * inv % p
            if q:  # zip stops before s's leading term, which cancels the popped one
                r[top - ds:top] = [(x - q * y) % p for x, y in zip(r[top - ds:top], s)]
        while r and not r[-1]:
            r.pop()
        r, s = s, r
    return s or r


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Gcd normalized primitive with positive lowest coefficient.

    When either operand is a monomial c*x^k the gcd is x^min(k, val(other))
    (x^k when the other is zero).  Otherwise it is 1 when the primitive
    parts' gcd modulo _P is constant, else that image lifted when it divides
    both, else the primitive PRS's answer: one proof (module docstring).
    """
    for p, q in ((a, b), (b, a)):
        cs = p.coeffs
        if cs and not any(cs[:-1]):
            k = min(len(cs) - 1, q.valuation()) if q else len(cs) - 1
            return Poly((0,) * k + (1,))
    a, b = a.primitive(), b.primitive()
    if a.degree < b.degree:
        a, b = b, a
    g = _gcd_mod_p(a.coeffs, b.coeffs) if b else None
    if g is not None:
        if len(g) == 1:
            return P_ONE
        scale, half = math.gcd(a.coeffs[-1], b.coeffs[-1]) * pow(g[-1], -1, _P), _P // 2
        h = Poly([(c * scale + half) % _P - half for c in g]).primitive()  # symmetric residues
        if not (prem(a, h)[1] or prem(b, h)[1]):
            return h
    return _prs(a, b, 0)


def bezout(a: Poly, b: Poly):
    """Extended Euclid's one cofactor, integral: returns (s, c, g) with
    g = gcd(a, b), c an int != 0 and s*a = c*g (mod b), so s/c is the
    inverse of a mod b when they are coprime.

    ``poly_gcd``'s PRS runs on integral rows x^w r + s from (a, 1) and
    (b, 0), w > deg a, deg b > deg s; it divides r alone and every row keeps
    s*a = r (mod b).  The last row with r != 0 has r = c*g; s/c is
    Euclid's last cofactor, so deg s < deg b - deg g when b != 0 (s = 0 when
    b | a).
    """
    if a.is_zero() and b.is_zero():
        raise ValueError("bezout of two zero polynomials")
    w = max(len(a.coeffs), len(b.coeffs))
    pad = (0,) * (w - 1)
    cs = _prs(Poly((1,) + pad + a.coeffs).primitive(),
              Poly(pad + (0,) + b.coeffs).primitive(), w).coeffs
    g = Poly(cs[w:]).primitive()
    c = cs[w + g.valuation()] // g[g.valuation()]
    return Poly(cs[:w]), c, g


class NotAPowerSeries(ValueError):
    """Raised when expanding a rational function with den(0) = 0."""


class RatFun:
    """Rational function num/den of integral polynomials, stored as given;
    ``lowest`` is the one reducer.  num and den may each be a Poly, a scalar
    or a list of rational coefficients, cleared by ``integral``."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=P_ONE):
        num, q = (num, 1) if isinstance(num, Poly) else integral(num)
        den, p = (den, 1) if isinstance(den, Poly) else integral(den)
        if p != q:  # (N/q)/(D/p) = (p N)/(q D)
            num, den = num * p, den * q
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        self.num, self.den = num, den

    def lowest(self) -> "RatFun":
        """The same function in lowest terms: the gcd divided out, then den
        and num made primitive jointly (:meth:`Poly.primitive` of den's
        coefficients, then num's), so den's lowest coefficient is positive."""
        num, den = self.num, self.den
        if num.is_zero():
            return RatFun(P_ZERO)
        if den.degree > 0:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num, den = num // g, den // g
        split = len(den.coeffs)
        cs = Poly(den.coeffs + num.coeffs).primitive().coeffs
        return RatFun(Poly(cs[split:]), Poly(cs[:split]))

    # -- structure ----------------------------------------------------------
    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatFun(other)
        elif not isinstance(other, RatFun):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        f = self.lowest()
        if f.den.degree == 0 and f.num.degree <= 0:  # a constant hashes as its value
            return hash(Fraction(f.num[0], f.den[0]))
        return hash((f.num, f.den))

    # -- field operations -----------------------------------------------------
    def __add__(self, other):
        other = _as_ratfun(other)
        a, b, c, d = self.num, self.den, other.num, other.den
        if b == d:
            return RatFun(a + c, b)
        return RatFun(a * d + c * b, b * d)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-_as_ratfun(other))

    def __rsub__(self, other):
        return _as_ratfun(other) + (-self)

    def __neg__(self):
        return RatFun(-self.num, self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):  # p/q multiplies num by p and den by q
            q = other.denominator
            return RatFun(self.num * other.numerator, self.den * q if q != 1 else self.den)
        other = _as_ratfun(other)
        return RatFun(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_ratfun(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RatFun(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return _as_ratfun(other) / self

    def substitute_neg(self) -> "RatFun":
        """f(x) -> f(-x)."""
        return RatFun(self.num.substitute_neg(), self.den.substitute_neg())

    # -- rendering ---------------------------------------------------------------
    def __str__(self):
        f = self.lowest()
        num, den = f.num, f.den
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


def _as_ratfun(x) -> RatFun:
    return x if isinstance(x, RatFun) else RatFun(x)


def agrees_from(f: RatFun, g, n0: int) -> bool:
    """True iff the power series f = a/b and g = c/d agree at every x^n
    with n >= n0.

    That holds exactly when t = a*d - c*b is zero or b*d divides t with a
    quotient of degree < n0: one cross product and at most one division,
    no gcd.  This is the package's one rule for "these two sides agree
    from n0 on": catalog proofs, kernel checks and closed-form equivalence
    all end here.
    """
    g = _as_ratfun(g)
    a, b, c, d = f.num, f.den, g.num, g.den
    t, dens = (a - c, (b,)) if b == d else (a * d - c * b, (b, d))
    if t.is_zero():
        return True
    # b*d is formed only when the degrees allow a quotient of degree < n0
    return t.degree - sum(p.degree for p in dens) < n0 and not prem(t, math.prod(dens))[1]


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
    monic = d0 == 1
    out = []
    for n in range(count):
        acc = num[n] if n < size else 0
        for k, dk in tail:
            if k > n:
                break
            acc -= dk * out[n - k]
        out.append(acc if monic and type(acc) is int else _div(acc, d0))
    return out


def shift_series(f: RatFun, s: int) -> RatFun:
    """GF of n -> f_{n+s}, one-sided (f_k = 0 for k < 0), without a gcd:
    num' = L*N - P*D over den' = L*D (module docstring); raises
    NotAPowerSeries when den(0) = 0."""
    num, den = f.num, f.den
    if den[0] == 0:
        raise NotAPowerSeries(f"den(0) = 0 in {den}")
    if s <= 0:
        return RatFun(num.shift(-s), den)
    prefix, scale = integral(series_coeffs(f, s))  # the first s terms, times scale
    num = num * scale - prefix * den
    return RatFun(Poly(num.coeffs[s:]), den if scale == 1 else den * scale)


# (spec, shift) -> GF of n -> a_{n+shift}; shift 0 is gf_of.  Unbounded:
# every shift asked for stays until expressions.clear_caches().
_GFS: dict = {}


def gf_of(spec) -> RatFun:
    """Ordinary generating function of a ``sequences.RecurrenceSpec``,
    built once per process and kept in ``_GFS``.

    Denominator D = 1 - sum(c_j x^j); numerator (seeds * D) mod x^len(seeds),
    forming only those terms, so the series reproduces the sequence exactly.
    The pair is kept in lowest terms: ``shifted_gf``'s shared denominator
    and the solver's coprimality check and Bezout steps need the minimal D.
    """
    g = _GFS.get((spec, 0))
    if g is None:
        den, seeds = [1] + [-c for c in spec.coeffs], spec.seeds
        num = [sum(seeds[j] * den[k - j] for j in range(max(0, k + 1 - len(den)), k + 1))
               for k in range(len(seeds))]
        g = _GFS[(spec, 0)] = RatFun(num, den).lowest()  # integral clears rational specs
    return g


def shifted_gf(spec, shift: int) -> RatFun:
    """Generating function of n -> a_{n+shift} under the one-sided convention,
    ``shift_series`` of ``gf_of(spec)``, built once per (spec, shift) and kept
    in ``_GFS``.  Its denominator is exactly ``gf_of(spec).den``: the shift
    changes only the numerator."""
    g = _GFS.get((spec, shift))
    if g is None:
        g = _GFS[(spec, shift)] = shift_series(gf_of(spec), shift)
    return g

