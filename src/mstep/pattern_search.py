"""Exhaustive search for window-sum identities of the shape

    sum_{k in K} sum_{j=0}^{p-1} F^(m)_{n+j+k}  ==  N * F^(m)_{n+l}   (all n >= 0)

with K a finite set of offsets (canonically min K = 0), window length p,
and rational N.  Candidates are enumerated within the given bounds and
each is decided exactly by residues modulo the characteristic polynomial
chi_m(x) = x^m - x^(m-1) - ... - 1, the reversal of the GF denominator
1 - x - ... - x^m.  Because that GF, x/(1 - x - ... - x^m), is in lowest
terms, chi_m is the minimal polynomial of the sequence, so for
nonnegative shifts the identity holds for all n >= 0 iff

    sum_s c_s x^s  ==  N * x^l   (mod chi_m)

(Fiduccia 1985).  chi_m is monic, so the residues of x^s are exact
integer vectors; they are computed once per call as sparse maps
exponent -> coefficient (x^s is a single term for every s < m, which is
nearly every shift when m is large).  Each residue of x^l, made primitive
and sign-normalised, is mapped to the smallest l that gives it.  A
candidate (K, p) then costs one integer sum of its window's residues,
built up from (K, p - 1), one normalisation and one dict lookup: it is a
solution iff its primitive part is in the map at an l inside the window,
and N is the ratio of the two signed contents.  No polynomial or Fraction
arithmetic runs per candidate, and every returned solution is proven, not
sampled.  Solutions are canonical under translation (shifting K by t
shifts l by t), and each (K, p) yields at most one solution, at its
smallest l, so the output is free of duplicates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd

from .sequences import handle, make_mstep


@dataclass(frozen=True)
class PatternSolution:
    m: int
    K: tuple
    p: int
    N: Fraction
    l: int

    @property
    def integer_n(self) -> bool:
        return self.N.denominator == 1

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "K": list(self.K),
            "p": self.p,
            "N": str(self.N),
            "l": self.l,
            "integerN": self.integer_n,
        }


def _residues(m: int, count: int) -> list:
    """x^s mod chi_m for s = 0 .. count, each a sparse map exponent -> int.

    chi_m = x^m - c_1 x^(m-1) - ... - c_m comes from the recurrence
    coefficients; it is minimal because the GF x/D, D = 1 - c_1 x - ... -
    c_m x^m, has numerator x and D(0) = 1.  It is monic, so x^m reduces to
    the integer tail sum c_j x^(m-j) and no division is needed."""
    cs = make_mstep(m).coeffs
    tail = {i: cs[m - 1 - i] for i in range(m) if cs[m - 1 - i]}
    residues = [{0: 1}]
    for _ in range(count):
        prev = residues[-1]
        r = {e + 1: c for e, c in prev.items() if e + 1 < m}
        lead = prev.get(m - 1)
        if lead:
            for i, t in tail.items():
                r[i] = r.get(i, 0) + lead * t
        residues.append(r)
    return residues


def _split(r: dict):
    """(signed content, primitive part) of a nonzero residue.  The part is
    hashable and its leading coefficient is positive, so two residues are
    proportional iff their parts are equal."""
    g = gcd(*r.values())
    if r[max(r)] < 0:
        g = -g
    return g, frozenset((e, c // g) for e, c in r.items())


def search(m: int, p_max: int, k_card_max: int, k_span_max: int,
           l_window: int | None = None) -> list:
    """All solutions within the bounds, in deterministic ascending order.

    K runs over canonical sets: 0 in K, |K| <= k_card_max, max K <= k_span_max.
    l ranges over 0 .. l_window, by default 0 .. max(K)+p+m, which bounds the
    dominant shift of any window combination.  A candidate (K, p) is a
    solution iff the residue of its window combination is a nonzero
    multiple N of the residue of x^l modulo chi_m for some l in range; the
    smallest such l is reported.
    """
    if m < 2 or p_max < 1 or k_card_max < 1 or k_span_max < 0 or (l_window or 0) < 0:
        raise ValueError("bounds must be positive (m >= 2, l_window >= 0)")
    residues = _residues(m, max(k_span_max + p_max + m, l_window or 0))
    # primitive part of x^l mod chi_m -> (smallest such l, signed content)
    first_l: dict = {}
    for l, r in enumerate(residues):
        g, part = _split(r)
        first_l.setdefault(part, (l, g))
    solutions = []
    k_sets = []
    for extra in range(min(k_card_max - 1, k_span_max) + 1):
        for rest in combinations(range(1, k_span_max + 1), extra):
            k_sets.append((0,) + rest)
    for K in sorted(k_sets):
        total: dict = {}  # residue of the window combination for (K, p)
        for p in range(1, p_max + 1):
            for k in K:
                for e, c in residues[k + p - 1].items():
                    total[e] = total.get(e, 0) + c
            g, part = _split(total)
            hit = first_l.get(part)
            top = l_window if l_window is not None else max(K) + p + m
            if hit is not None and hit[0] <= top:
                solutions.append(PatternSolution(m, K, p, Fraction(g, hit[1]), hit[0]))
    solutions.sort(key=lambda s: (s.p, s.K, s.l))
    return solutions


def verify_solution(sol: PatternSolution, n_count: int = 50) -> bool:
    """Independent numeric confirmation over n = 0 .. n_count, straight from
    the memoized sequence (no kernel reasoning)."""
    if n_count < 0:
        raise ValueError("n_count must be >= 0: an empty range proves nothing")
    h = handle(make_mstep(sol.m))
    for n in range(n_count + 1):
        lhs = sum(h.term(n + j + k) for k in sol.K for j in range(sol.p))
        if lhs != sol.N * h.term(n + sol.l):
            return False
    return True
