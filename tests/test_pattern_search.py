from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mstep.pattern_search import PatternSolution, _split, search
from mstep.sequences import handle, make_mstep
from mstep.series_algebra import P_ONE, P_ZERO, Poly, gf_of, prem


def window_combo(K, p: int) -> dict:
    """Shift multiset of the double sum: shift -> multiplicity."""
    combo: dict = {}
    for k in K:
        for j in range(p):
            combo[k + j] = combo.get(k + j, 0) + 1
    return combo


def scan_search(m, p_max, k_card_max, k_span_max, l_window=None):
    """Reference: residues as Polys mod chi_m, every l scanned in order and
    each candidate tested by a Fraction multiple of the residue of x^l."""
    chi = Poly(reversed(gf_of(make_mstep(m)).den.coeffs))
    residues = [P_ONE]
    for _ in range(max(k_span_max + p_max + m, l_window or 0)):
        s, r = prem(residues[-1].shift(1), chi)
        assert s == 1  # chi is monic, so the pseudo-remainder is the remainder
        residues.append(r)
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
                if r * N.numerator == total * N.denominator:
                    solutions.append(PatternSolution(m, K, p, N, l))
                    break
    solutions.sort(key=lambda s: (s.p, s.K, s.l))
    return solutions


def test_window_combo_multiset():
    assert window_combo((0, 2), 4) == {0: 1, 1: 1, 2: 2, 3: 2, 4: 1, 5: 1}


def test_trivial_solution_present():
    sols = search(2, p_max=3, k_card_max=1, k_span_max=0)
    assert PatternSolution(2, (0,), 1, Fraction(1), 0) in sols


def test_known_fibonacci_solution():
    sols = search(2, p_max=6, k_card_max=2, k_span_max=3)
    assert PatternSolution(2, (0, 2), 4, Fraction(5), 4) in sols


def test_lemma_family_found_for_each_m():
    for m in range(2, 7):
        sols = search(m, p_max=2 * m + 2, k_card_max=1, k_span_max=0)
        assert PatternSolution(m, (0,), 2 * m + 2, Fraction(4), 2 * m) in sols


def test_every_solution_verifies_independently(verify_solution):
    for m in (2, 3, 4):
        for sol in search(m, p_max=10, k_card_max=3, k_span_max=4):
            assert verify_solution(sol, 50)


def test_solutions_are_canonical_and_unique():
    sols = search(2, p_max=8, k_card_max=3, k_span_max=5)
    assert all(s.K[0] == 0 for s in sols)
    assert len({(s.K, s.p) for s in sols}) == len(sols)
    # no two distinct solutions are translations of one another
    for a, b in combinations(sols, 2):
        if a.p == b.p:
            t = b.l - a.l
            assert tuple(k + t for k in a.K) != b.K or a.K == b.K


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_bruteforce_reenumeration_matches(m):
    # Independent small-bounds search: estimate N numerically at one index
    # and accept after a straight 0..60 scan.
    p_max, card, span = 6, 2, 3
    h = handle(make_mstep(m))
    found = set()
    k_sets = [(0,)] + [(0, extra) for extra in range(1, span + 1)]
    for K in k_sets:
        for p in range(1, p_max + 1):
            for l in range(0, max(K) + p + m + 1):
                probe = 20
                denom = h.term(probe + l)
                lhs_probe = sum(h.term(probe + j + k) for k in K for j in range(p))
                if denom == 0 or lhs_probe == 0:
                    continue
                n_val = Fraction(lhs_probe, denom)
                if all(
                    sum(h.term(n + j + k) for k in K for j in range(p))
                    == n_val * h.term(n + l)
                    for n in range(61)
                ):
                    found.add((K, p, n_val, l))
    from_search = {
        (s.K, s.p, s.N, s.l)
        for s in search(m, p_max=p_max, k_card_max=card, k_span_max=span)
    }
    assert from_search == found


@settings(deadline=None, max_examples=150)
@given(st.integers(2, 9), st.integers(1, 10), st.integers(1, 3), st.integers(0, 6),
       st.sampled_from([None, 0, 1, 3, 8, 40]))
def test_search_equals_the_scan(m, p_max, k_card, span, l_window):
    assert search(m, p_max, k_card, span, l_window) == scan_search(
        m, p_max, k_card, span, l_window)


def test_search_equals_the_scan_at_m_500():
    assert search(500, 16, 2, 12) == scan_search(500, 16, 2, 12)
    assert search(500, 8, 3, 6, 40) == scan_search(500, 8, 3, 6, 40)


def test_split_gives_signed_content_and_a_positive_leading_part():
    assert _split({0: 6, 2: -4}) == (-2, frozenset({(0, -3), (2, 2)}))
    assert _split({1: 3}) == (3, frozenset({(1, 1)}))


def test_l_window_bounds_the_reported_l():
    sol = PatternSolution(2, (0, 2), 4, Fraction(5), 4)
    assert sol in search(2, 6, 2, 3)
    assert sol not in search(2, 6, 2, 3, l_window=3)
    assert all(s.l <= 3 for s in search(2, 6, 2, 3, l_window=3))


def test_default_l_range_is_exhaustive_up_to_40():
    # max(K)+p+m bounds l: widening the window to 40 finds nothing more
    for m in range(2, 7):
        assert search(m, 14, 3, 6, l_window=40) == search(m, 14, 3, 6)


def test_verify_solution_rejects_an_empty_range(verify_solution):
    false_sol = PatternSolution(2, (0,), 1, Fraction(7), 3)
    assert not verify_solution(false_sol, 0)
    with pytest.raises(ValueError):
        verify_solution(false_sol, -1)


def test_json_line_shape():
    sol = PatternSolution(2, (0, 2), 4, Fraction(5), 4)
    assert sol.to_json() == {
        "m": 2, "K": [0, 2], "p": 4, "N": "5", "l": 4, "integerN": True}


def test_rejects_bad_bounds():
    with pytest.raises(ValueError):
        search(1, 3, 1, 1)
    with pytest.raises(ValueError):
        search(2, 3, 1, 1, l_window=-4)
