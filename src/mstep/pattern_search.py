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

(Fiduccia 1985).  The residues of x^s are computed once and shared by
every candidate, and the test is proportionality of two residue vectors, so
every returned solution is proven, not sampled.  Solutions are canonical
under translation (shifting K by t shifts l by t), and for a fixed (K, p)
at most one (N, l) can exist, so the output is free of duplicates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .sequences import handle, make_mstep
from .series_algebra import P_ONE, P_ZERO, Poly, gf_of


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


def window_combo(K, p: int) -> dict:
    """Shift multiset of the double sum: shift -> multiplicity."""
    combo: dict = {}
    for k in K:
        for j in range(p):
            combo[k + j] = combo.get(k + j, 0) + 1
    return combo


def search(m: int, p_max: int, k_card_max: int, k_span_max: int,
           l_window: int | None = None) -> list:
    """All solutions within the bounds, in deterministic ascending order.

    K runs over canonical sets: 0 in K, |K| <= k_card_max, max K <= k_span_max.
    The scan range for l defaults to 0 .. max(K)+p+m, which bounds the
    dominant shift of any window combination.  A candidate (K, p, l) is a
    solution iff the residue of its window combination is a nonzero
    multiple N of the residue of x^l modulo chi_m.
    """
    if m < 2 or p_max < 1 or k_card_max < 1 or k_span_max < 0 or (l_window or 0) < 0:
        raise ValueError("bounds must be positive (m >= 2, l_window >= 0)")
    # residues[s] = x^s mod chi_m for every shift and every l the scan reaches
    chi = Poly(reversed(gf_of(make_mstep(m)).den.coeffs))
    residues = [P_ONE]
    for _ in range(max(k_span_max + p_max + m, l_window or 0)):
        residues.append(residues[-1].shift(1) % chi)
    solutions = []
    k_sets = []
    for extra in range(min(k_card_max - 1, k_span_max) + 1):
        for rest in combinations(range(1, k_span_max + 1), extra):
            k_sets.append((0,) + rest)
    for K in sorted(k_sets):
        for p in range(1, p_max + 1):
            total = sum((residues[s] * c for s, c in window_combo(K, p).items()), P_ZERO)
            top = l_window if l_window is not None else max(K) + p + m
            for l in range(top + 1):
                r = residues[l]
                if r.degree != total.degree:
                    continue
                N = Fraction(total.coeffs[-1], r.coeffs[-1])
                if r * N == total:
                    solutions.append(PatternSolution(m, K, p, N, l))
                    break  # at most one l can match a fixed (K, p)
    solutions.sort(key=lambda s: (s.p, s.K, s.l))
    return solutions


def verify_solution(sol: PatternSolution, n_count: int = 50) -> bool:
    """Independent numeric confirmation over n = 0 .. n_count, straight from
    the memoized sequence (no kernel reasoning)."""
    h = handle(make_mstep(sol.m))
    for n in range(n_count + 1):
        lhs = sum(h.term(n + j + k) for k in sol.K for j in range(sol.p))
        if lhs != sol.N * h.term(n + sol.l):
            return False
    return True
