"""Closed forms for convolutions of linear-recurrence sequences.

``solve_conv_multi`` takes any ``RecurrenceSpec`` values (or registered
names) whose GF denominators are pairwise coprime.  The
product GF N/D is pseudo-divided once, s*N = Q*D + R; R/D splits over the
factors' denominators D_i with one Bezout inverse each, and each partial
fraction A(x)/D_i(x) becomes rational-coefficient shifts of sequence i
(every polynomial stays integral, its scalars kept as one Fraction):  for a
sequence whose GF numerator is the monomial c*x^s, A/D = (A/(c x^s)) * gf,
so the monomials of A map one-to-one onto shifts (a nonzero constant term
of A yields the shift +1 term a_{n+1}, which is exact because such
sequences vanish at 0).  The polynomial quotient Q, and the polynomial
left by a non-monomial numerator, go into the finite ``corrections`` map,
keeping the closed form total on n >= 0 under the one-sided convention.
The shifts are kept as one ``expressions`` tree, ``ClosedForm.expr``, which
that module evaluates and compiles; the corrections are added beside it.

``derive_case`` follows the stacking construction instead: multiplying the
gap identity repeatedly by x^p and collapsing windows of consecutive terms
(m-window to one term; (m+1)-window to twice one term; (2m+2)-window to
four times one term).  It covers exactly the divisibility cases p|m,
p|m+1 and p = 2m+2 and produces the aligned convolution together with its
explicit other-terms, proved by the one generating-function rule,
``agrees_from`` of both sides' compiled GFs; the closed form is
cross-checked against the convolution's own GF, F^(m)(x) * F^(m+p)(x).

Closed forms are unique only modulo each sequence's recurrence kernel, so
equality against a reference expression is never syntactic.  ``equivalent``
decides it by generating functions: the closed form's rebuilt GF and the
reference's compiled GF must differ by a polynomial of degree < n0, the
same ``agrees_from`` rule that proves catalog identities.  No numeric
window is inspected.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import cached_property

from . import expressions as ex
from .convolution_oracle import conv_multi_prefix
from .sequences import handle, make_mstep, mstep_name, resolve
from .series_algebra import P_ONE, Poly, RatFun, agrees_from, bezout, gf_of, poly_gcd, prem


class SolverError(Exception):
    pass


class NonCoprime(SolverError):
    """Denominators share a factor; partial fractions over them is out of scope."""

    def __init__(self, common: Poly, names=()):
        self.common = common
        self.names = tuple(names)
        super().__init__(f"denominators of {'*'.join(self.names)} share the factor {common}")


class RepeatedFactor(SolverError):
    """The same denominator appears twice (e.g. a sequence convolved with itself)."""


class CaseNotApplicable(SolverError):
    """(m, p) fits none of the divisibility cases p|m, p|m+1, p=2m+2."""


_SYMBOLS = {
    "hexanacci": "s",
    "heptanacci": "S",
    "octanacci": "O",
    "jacobsthal": "J",
    "pell": "Pell",
}

_LATEX_SYMBOLS = {
    "hexanacci": "s",
    "heptanacci": "S",
    "octanacci": "\\mathcal{O}",
    "jacobsthal": "J",
    "pell": "\\mathcal{P}",
    "F1": "F^{(1)}",
}


class ClosedForm:
    """sum over parts of coeff * seq_{n+shift}, plus finite corrections."""

    def __init__(self, factors: tuple, parts: tuple, corrections: dict,
                 gf_equal: bool = False, oracle_max_n: int = -1):
        self.factors = factors  # (RecurrenceSpec, ...)
        self.parts = parts  # ((RecurrenceSpec, {shift: coefficient}), ...)
        self.corrections, self.gf_equal, self.oracle_max_n = corrections, gf_equal, oracle_max_n

    def evaluate(self, n: int):
        return ex.evaluate(self.expr, n) + self.corrections.get(n, 0)

    @cached_property
    def expr(self) -> ex.SeqExpr:
        """The parts in render order, (1/d)(sum of (c*d) seq_{n+s}), d = ``_denominator``."""
        d = self._denominator
        terms = [ex.scale(combo[s] * d, ex.term(spec, s))
                 for spec, combo in self.parts for s in sorted(combo, reverse=True)]
        return ex.scale(Fraction(1, d), ex.add(*terms)) if terms else ex.const(0)

    @cached_property
    def _denominator(self) -> int:
        """Least common denominator of the part coefficients, computed once:
        ``parts`` is not reassigned after construction."""
        return math.lcm(*(c.denominator for _, combo in self.parts for c in combo.values()))

    def gf(self) -> RatFun:
        """Generating function of ``expr`` plus the corrections polynomial."""
        top = max(self.corrections, default=-1)
        fixed = RatFun([self.corrections.get(k, 0) for k in range(top + 1)])
        return ex.gf_of_expr(self.expr) + fixed

    def check_oracle(self, n_max: int = 100) -> bool:
        """Compare against the brute-force convolution for 0 <= n <= n_max."""
        if n_max < 0:
            raise ValueError(f"oracle range 0..{n_max} is empty, nothing to check")
        column = ex.evaluate_range(self.expr, n_max + 1)
        values = conv_multi_prefix(self.factors, n_max)
        ok = all(c + self.corrections.get(n, 0) == v
                 for n, (c, v) in enumerate(zip(column, values)))
        if ok:
            self.oracle_max_n = max(self.oracle_max_n, n_max)
        return ok

    def to_json(self) -> dict:
        parts = []
        for spec, combo in self.parts:
            terms = [
                {"shift": s, "coeff": str(combo[s])}
                for s in sorted(combo, reverse=True)
            ]
            parts.append({"seq": spec.name, "terms": terms})
        corrections = [
            {"n": n, "coeff": str(self.corrections[n])} for n in sorted(self.corrections)
        ]
        return {
            "factors": [spec.name for spec in self.factors],
            "parts": parts,
            "corrections": corrections,
            "verified": {"gf_equal": self.gf_equal, "oracle_max_n": self.oracle_max_n},
        }

    # -- rendering -----------------------------------------------------------
    def _render(self, symbols, term_fmt, wrap_fmt, corr_fmt) -> str:
        denom = self._denominator
        terms = []
        for spec, combo in self.parts:
            name = spec.name
            for s in sorted(combo, reverse=True):
                c = combo[s] * denom
                idx = "n" if s == 0 else (f"n+{s}" if s > 0 else f"n-{-s}")
                body = term_fmt(symbols.get(name, name), name, idx)
                if abs(c) != 1:
                    body = f"{abs(c)} {body}"
                if not terms:
                    terms.append(body if c > 0 else f"- {body}")
                else:
                    terms.append(("+ " if c > 0 else "- ") + body)
        out = " ".join(terms) if terms else "0"
        if denom != 1:
            out = wrap_fmt(denom, out)
        if self.corrections:
            extra = ", ".join(
                f"n={n}: {self.corrections[n]}" for n in sorted(self.corrections)
            )
            out += corr_fmt(extra)
        return out

    def text(self) -> str:
        def term_fmt(sym, name, idx):
            return f"2^({idx})" if name == "pow2" else f"{sym}[{idx}]"

        return self._render(
            _SYMBOLS, term_fmt,
            lambda d, body: f"(1/{d})( {body} )",
            lambda extra: f" + corrections[{extra}]",
        )

    def latex(self) -> str:
        def term_fmt(sym, name, idx):
            return f"2^{{{idx}}}" if name == "pow2" else f"{sym}_{{{idx}}}"

        return self._render(
            _LATEX_SYMBOLS, term_fmt,
            lambda d, body: f"\\frac{{1}}{{{d}}}\\left( {body} \\right)",
            lambda extra: f" + \\text{{corrections: {extra}}}",
        )


# -- the general partial-fraction solver -----------------------------------------


def solve_conv_multi(specs) -> ClosedForm:
    """Closed form for the convolution of one or more sequences.

    ``specs`` are ``RecurrenceSpec`` values or names ``resolve`` knows.
    Requires pairwise-coprime GF denominators; the decomposition is exact
    and GF-verified on construction.
    """
    specs = [resolve(s) for s in specs]
    if not specs:
        raise SolverError("need at least one factor")
    gfs = [gf_of(s) for s in specs]
    dens = [g.den for g in gfs]
    for i in range(len(specs)):
        for j in range(i + 1, len(specs)):
            if dens[i] == dens[j]:
                raise RepeatedFactor(
                    f"repeated denominator {dens[i]} "
                    f"({specs[i].name}, {specs[j].name})")
            g = poly_gcd(dens[i], dens[j])
            if g.degree > 0:
                raise NonCoprime(g, (specs[i].name, specs[j].name))

    if len(specs) == 1:
        return ClosedForm(
            factors=tuple(specs),
            parts=((specs[0], {0: Fraction(1)}),),
            corrections={},
            gf_equal=True,
        )

    num = den = P_ONE
    for g in gfs:
        num, den = num * g.num, den * g.den
    # s*N = Q*D + R, so N/D = (Q + R/D)/s with R/D = sum_i A_i/D_i and
    # A_i = R * (D/D_i)^-1 mod D_i, each a Fraction times an integral polynomial.
    s, rem = prem(num, den)
    corrections: dict = {}
    _add_poly_corrections(corrections, (num * s - rem) // den, Fraction(1, s))
    parts = []
    for spec, g in zip(specs, gfs):
        d = g.den
        # D/D_i mod D_i gives the same inverse from a PRS of degree deg D_i:
        # t*(D/D_i) = r and u*r = c (mod D_i), coprime, so the inverse is u*t/c.
        t, r = prem(den // d, d)
        u, c, _ = bezout(r, d)
        k, a_i = prem(rem * u, d)  # k*R*u = a_i (mod D_i), so A_i = a_i*t/(c*k)
        parts.append((spec, _fraction_to_shifts(g, a_i, Fraction(t, s * c * k), corrections)))

    cf = ClosedForm(
        factors=tuple(specs),
        parts=tuple(parts),
        corrections={n: c for n, c in corrections.items() if c != 0},
    )
    cf.gf_equal = cf.gf() == RatFun(num, den)
    if not cf.gf_equal:
        raise AssertionError("internal error: reconstruction does not match product GF")
    return cf


def _fraction_to_shifts(g: RatFun, a: Poly, scale: Fraction, corrections: dict) -> dict:
    """Express scale*A/D as shifts of the sequence with GF g = N/D plus a
    polynomial, which is added to ``corrections``; returns the shifts.

    With GF numerator c*x^s, A/D = (A/(c x^s)) * gf, so monomial k of A
    becomes the shift s-k.  Shifts up to +s are exact power series because
    the sequence vanishes below index s.  Non-monomial numerators (the
    Lucas numbers' 2 - x, or any other seeds a caller gives) fall back to a
    Bezout rewrite whose leftover polynomial lands in the corrections.
    """
    if a.is_zero():
        return {}
    num = g.num
    val = num.valuation()
    if all(c == 0 for k, c in enumerate(num.coeffs) if k != val):
        scale /= num.coeffs[val]
        return {val - k: c * scale for k, c in enumerate(a.coeffs) if c}
    # gf_of is in lowest terms, so t*num = c (mod den); then k*a*t = r (mod den),
    # and A = (r/(c k))*num + E*den with (c k) E = c k A - r num.
    t, c, _ = bezout(num, g.den)
    k, r = prem(a * t, g.den)
    scale /= c * k
    _add_poly_corrections(corrections, (a * (c * k) - r * num) // g.den, scale)
    return {-j: x * scale for j, x in enumerate(r.coeffs) if x}


def _add_poly_corrections(corrections: dict, poly: Poly, scale: Fraction) -> None:
    for k, c in enumerate(poly.coeffs):
        if c:
            corrections[k] = corrections.get(k, Fraction(0)) + c * scale


# -- equivalence modulo recurrence kernels ------------------------------------------


def equivalent(cf: ClosedForm, expr, n0: int = 0) -> bool:
    """True iff cf(n) == expr(n) for all n >= n0.

    Decided by generating functions, not by sampling: the rebuilt GF of the
    closed form and the compiled GF of ``expr`` must differ by a polynomial
    of degree < n0 (``agrees_from``).  Raises ValueError when ``expr`` is
    outside the rational fragment ``gf_of_expr`` compiles.
    """
    try:
        g = ex.gf_of_expr(expr)
    except ex.NotCompilable as exc:
        raise ValueError(f"reference expression does not compile: {exc.reason}") from exc
    return agrees_from(cf.gf(), g, n0)


# -- the three-case stacking derivation ----------------------------------------------


# case is "p|m", "p|m+1" or "p=2m+2"; lhs = rhs is the aligned-sum identity with
# explicit other-terms in rhs; closed_expr is a shift combination equal to the convolution.
CaseDerivation = namedtuple("CaseDerivation", "m p case ell lhs rhs closed_expr")


def stacking_case(m: int, p: int) -> tuple | None:
    """(case, ell) of the first stacking case that fits (m, p), else None."""
    if m % p == 0:
        return "p|m", m // p
    if (m + 1) % p == 0:
        return "p|m+1", (m + 1) // p
    if p == 2 * m + 2:
        return "p=2m+2", 1
    return None


def derive_case(m: int, p: int) -> CaseDerivation:
    """Reproduce the stacking derivation for conv(F^(m), F^(m+p)).

    Emits the aligned restricted convolution with its explicit other-terms,
    proved by generating functions: both sides compile and agree as power
    series from n = 0 (``agrees_from``).  Also emits the resulting closed
    form, cross-checked against the convolution's generating function
    F^(m)(x) * F^(m+p)(x) with no partial-fraction solve.
    """
    if m < 2 or p < 1:
        raise CaseNotApplicable(f"need m >= 2 and p >= 1, got (m, p) = ({m}, {p})")
    found = stacking_case(m, p)
    if found is None:
        raise CaseNotApplicable(
            f"(m, p) = ({m}, {p}) fits none of p|m, p|m+1, p=2m+2")
    case, ell = found
    lo, hi = mstep_name(m), mstep_name(m + p)
    if case == "p=2m+2":
        lhs, rhs, closed = _derive_quadruple_case(m, lo, hi)
    else:
        lhs, rhs, closed = _derive_div_case(m, p, lo, hi, ell, doubled=case == "p|m+1")
    try:
        proved = agrees_from(ex.gf_of_expr(lhs), ex.gf_of_expr(rhs), 0)
    except ex.NotCompilable:
        proved = False
    if not proved:
        raise AssertionError(f"derived identity fails its GF proof: case_m{m}_p{p}")
    product = gf_of(make_mstep(m)) * gf_of(make_mstep(m + p))
    if not agrees_from(product, ex.gf_of_expr(closed), 0):
        raise AssertionError(f"derivation disagrees with the convolution for (m={m}, p={p})")
    return CaseDerivation(m, p, case, ell, lhs, rhs, closed)


def _derive_div_case(m, p, lo, hi, ell, doubled):
    """Cases p|m (window of m collapses to one term) and p|m+1 (window of
    m+1 collapses to two equal terms)."""
    h = handle(lo)
    stack = [
        ex.sub(ex.term(hi, -j * p), ex.term(lo, -j * p)) for j in range(ell)
    ]
    if not doubled:
        # stacked = conv(n-m+1) - hi_{n-m}; restrict the convolution to
        # lo-indices >= m and move the small-index tail into other-terms.
        restricted = ex.conv(ex.term(hi), ex.term(lo, m), offset=-(2 * m - 1))
        ot = [
            ex.scale(h.term(i), ex.term(hi, 1 - m - i))
            for i in range(2, m)
            if h.term(i)
        ]
        rhs = ex.add(restricted, *ot) if ot else restricted
        closed = ex.add(
            *[ex.sub(ex.term(hi, m - 1 - j * p), ex.term(lo, m - 1 - j * p))
              for j in range(ell)],
            ex.term(hi, -1),
        )
    else:
        restricted = ex.scale(2, ex.conv(ex.term(hi), ex.term(lo, m), offset=-2 * m))
        ot = [ex.term(hi, -m - 1)]
        ot += [
            ex.scale(2 * h.term(i), ex.term(hi, -m - i))
            for i in range(2, m)
            if h.term(i)
        ]
        rhs = ex.add(restricted, *ot)
        closed = ex.scale(Fraction(1, 2), ex.add(
            *[ex.sub(ex.term(hi, m - j * p), ex.term(lo, m - j * p))
              for j in range(ell)],
            ex.term(hi, -1),
        ))
    return ex.add(*stack), rhs, closed


def _derive_quadruple_case(m, lo, hi):
    """Case p = 2m+2: a (2m+2)-window of the m-step sequence collapses to
    four times one term, with an exact polynomial correction."""
    h = handle(lo)
    g = gf_of(resolve(lo))
    window = Poly([1] * (2 * m + 2))
    # c(x) = (window - 4x) * gf is a polynomial: the window lemma's defect.
    c_poly = (window - Poly((0, 4))) * g.num // g.den
    restricted = ex.scale(4, ex.conv(ex.term(hi), ex.term(lo, 2 * m), offset=-(3 * m + 1)))
    prefix = Poly([h.term(j) for j in range(2 * m)])
    q = (c_poly + Poly((0, 4)) * prefix).shift(m)
    ot = [
        ex.scale(c, ex.term(hi, -k)) for k, c in enumerate(q.coeffs) if c
    ]
    closed_terms = [ex.term(hi, m + 1), ex.scale(-1, ex.term(lo, m + 1))]
    closed_terms += [
        ex.scale(-c, ex.term(hi, 1 - k)) for k, c in enumerate(c_poly.coeffs) if c
    ]
    closed = ex.scale(Fraction(1, 4), ex.add(*closed_terms))
    return ex.sub(ex.term(hi), ex.term(lo)), ex.add(restricted, *ot), closed


# -- the full two-sequence grid --------------------------------------------------------


def cell_label(m: int, p: int) -> str:
    if p == 1:
        return "p=1"
    found = stacking_case(m, p)
    return found[0] if found else "general-solver"


def table(max_sum: int = 9, oracle_n: int = 100) -> list:
    """Solve and verify every convolution cell with 2 <= m, 1 <= p, m+p <= max_sum.

    Each cell reports the applicable case label (or "general-solver"), the
    solver's closed form, GF-equality and oracle verification status, and
    ``case_equivalent``: True when a case derivation applies (``derive_case``
    raises unless it is proved), else None.  Raises
    ValueError when the grid is empty (max_sum < 3): nothing would be checked.
    """
    if max_sum < 3:
        raise ValueError(f"no cell has m >= 2, p >= 1 and m + p <= {max_sum}")
    cells = []
    for m in range(2, max_sum - 1 + 1):
        for p in range(1, max_sum - m + 1):
            cf = solve_conv_multi([make_mstep(m), make_mstep(m + p)])
            oracle_ok = cf.check_oracle(oracle_n)
            label = cell_label(m, p)
            case_equivalent = None
            if label != "general-solver":
                derive_case(m, p)  # raises unless the derivation is proved
                case_equivalent = True
            cells.append({
                "m": m,
                "p": p,
                "label": label,
                "closed_form": cf.to_json(),
                "gf_equal": cf.gf_equal,
                "oracle_ok": oracle_ok,
                "oracle_max_n": cf.oracle_max_n,
                "case_equivalent": case_equivalent,
                "text": cf.text(),
            })
    return cells
