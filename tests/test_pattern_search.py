from fractions import Fraction
from itertools import combinations

import pytest

from mstep.pattern_search import PatternSolution, search, verify_solution, window_combo
from mstep.sequences import handle, make_mstep


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


def test_every_solution_verifies_independently():
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


def test_json_line_shape():
    sol = PatternSolution(2, (0, 2), 4, Fraction(5), 4)
    assert sol.to_json() == {
        "m": 2, "K": [0, 2], "p": 4, "N": "5", "l": 4, "integerN": True}


def test_rejects_bad_bounds():
    with pytest.raises(ValueError):
        search(1, 3, 1, 1)
    with pytest.raises(ValueError):
        search(2, 3, 1, 1, l_window=-4)
