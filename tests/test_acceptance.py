"""End-to-end acceptance checks.

One test per acceptance criterion; every check is exact (tolerance zero)
and each test prints a single PASS line describing what was established.
"""

import time
from fractions import Fraction

from mstep import expressions as ex
from mstep.cli import main as cli_main
from mstep.closed_form_solver import solve_conv_multi, equivalent, table
from mstep.convolution_oracle import (
    REGISTERED_TUPLES,
    conv2,
    conv_multi,
    multi_index_sum_direct,
)
from mstep.identity_catalog import (
    catalog_index,
    load_manifest,
    negative_as_documented,
    verify_numeric,
    verify_symbolic,
)
from mstep.pattern_search import PatternSolution, search
from mstep.sequences import handle, make_mstep, resolve


def T(name, shift=0):
    return ex.term(name, shift)


def test_catalog_is_complete_and_verifies_quickly():
    catalog = load_manifest()
    assert len(catalog) >= 45
    by_id = catalog_index(catalog)
    # each encoded family is present, parametric instances counted separately
    for wanted in ("adjacent_m1", "adjacent_m8", "pgap_m2_p7", "pgap_m7_p2",
                   "switch_m8", "pow2_general_m8", "alt_even_m4", "alt_odd_m3",
                   "jacobsthal_m8", "pell_triple_m5", "window4_m6",
                   "partial_sum_m8", "wsum_3Q"):
        assert wanted in by_id
    start = time.monotonic()
    code = cli_main(["verify", "--all", "--max-n", "200"])
    elapsed = time.monotonic() - start
    assert code == 0
    assert elapsed < 60.0
    print(f"PASS catalog-verification: {len(catalog)} identities, "
          f"exit 0 in {elapsed:.1f}s (< 60s)")


def test_convolution_spot_values():
    F, Tr, Q, P = handle("F"), handle("T"), handle("Q"), handle("P")
    J, pell, pw2 = handle("jacobsthal"), handle("pell"), handle("pow2")
    hexa, octa = handle("hexanacci"), handle("octanacci")
    checks = [
        (conv2(F, Tr, 4), 5, Tr.term(6) - F.term(6)),
        (conv2(F, Q, 4), 5, Q.term(5) + Q.term(3) - F.term(5)),
        (conv2(F, P, 4), 5, Fraction(P.term(6) + P.term(3) - F.term(6), 2)),
        (conv2(P, Tr, 4), 5,
         Fraction(P.term(7) + P.term(5) + P.term(3) - Tr.term(7) - Tr.term(5), 2)),
        (conv2(pw2, F, 4), 19, 2 ** 5 - F.term(7)),
        (conv2(J, Tr, 3), 2,
         J.term(4) + Fraction(J.term(5) - Tr.term(6) - Tr.term(4), 2)),
        (conv2(pell, F, 4), 9, pell.term(4) - F.term(4)),
        (conv_multi(["F", "T", "Q"], 3), 1, 1),
        (conv_multi(["F", "T", "Q", "P"], 4), 1, 1),
        (conv2(F, hexa, 3), 2, 2),
        (conv2(F, octa, 4), 5, 5),
    ]
    for got, expected, closed in checks:
        assert got == expected == closed
    print(f"PASS spot-values: {len(checks)} convolution values, exact")


def test_functional_equations_prove_symbolically():
    catalog = load_manifest()
    gf_entries = [i for i in catalog if i.kind == "gf"]
    for ident in gf_entries:
        assert verify_symbolic(ident).passed, ident.id
    ids = {i.id for i in gf_entries}
    for m in (1, 2, 3):
        for p in (1, 2, 3):
            for q in (1, 2, 3):
                assert f"gf_triple_m{m}_p{p}_q{q}" in ids
    assert {"gf_quad_m1", "gf_quad_m2"} <= ids
    print(f"PASS functional-equations: {len(gf_entries)} GF identities equal "
          f"as canonical rational functions")


def test_solver_matches_known_closed_forms():
    half = Fraction(1, 2)
    pair_refs = {
        ("F", "T"): ex.sub(T("T", 2), T("F", 2)),
        ("T", "Q"): ex.sub(T("Q", 3), T("T", 3)),
        ("Q", "P"): ex.sub(T("P", 4), T("Q", 4)),
        ("F", "Q"): ex.add(T("Q", 1), T("Q", -1), ex.scale(-1, T("F", 1))),
        ("F", "P"): ex.scale(half, ex.add(
            T("P", 2), T("P", -1), ex.scale(-1, T("F", 2)))),
        ("T", "P"): ex.scale(half, ex.add(
            T("P", 3), T("P", 1), T("P", -1),
            ex.scale(-1, T("T", 3)), ex.scale(-1, T("T", 1)))),
        ("F", "hexanacci"): ex.scale(Fraction(1, 5), ex.add(
            T("hexanacci", 3), T("hexanacci", 1), ex.scale(-1, T("hexanacci")),
            ex.scale(3, T("hexanacci", -1)), T("hexanacci", -3),
            ex.scale(-1, T("F", 3)), ex.scale(-1, T("F", 1)))),
        ("F", "octanacci"): ex.scale(Fraction(1, 4), ex.add(
            T("octanacci", 3), ex.scale(-1, T("octanacci")),
            ex.scale(2, T("octanacci", -1)), T("octanacci", -3),
            ex.scale(-1, T("F", 3)))),
        # the worked m=4, p=2 stacking example, realigned to the plain conv
        ("Q", "hexanacci"): ex.add(
            T("hexanacci", 3), T("hexanacci", 1), T("hexanacci", -1),
            ex.scale(-1, T("Q", 3)), ex.scale(-1, T("Q", 1))),
    }
    for (a, b), ref in pair_refs.items():
        cf = solve_conv_multi([resolve(a), resolve(b)])
        assert equivalent(cf, ref, 0), (a, b)
    multi_refs = {
        ("F", "T", "Q"): ex.add(
            T("Q", 4), T("Q", 2), ex.scale(-1, T("T", 5)), T("F", 3)),
        ("T", "Q", "P"): ex.add(ex.scale(half, ex.add(
            T("P", 7), T("P", 5), T("P", 3), T("T", 7),
            ex.scale(-1, T("T", 5)))), ex.scale(-1, T("Q", 7))),
        ("F", "Q", "P"): ex.add(
            ex.scale(-1, T("Q", 5)), ex.scale(-1, T("Q", 3)),
            ex.scale(half, ex.add(T("P", 6), T("P", 3), ex.scale(-1, T("F", 6)))),
            T("F", 5)),
        ("F", "T", "P"): ex.scale(half, ex.add(
            T("P", 5), ex.scale(-1, T("P", 4)), T("P", 3),
            ex.scale(-1, T("T", 5)), ex.scale(-1, T("T", 3)), T("F", 4))),
        ("F", "T", "Q", "P"): ex.add(ex.scale(half, ex.add(
            T("P", 9), ex.scale(-1, T("P", 8)), T("P", 7), T("T", 8), T("T", 6),
            ex.scale(-1, T("F", 5)))),
            ex.scale(-1, T("Q", 8)), ex.scale(-1, T("Q", 6))),
    }
    for names, ref in multi_refs.items():
        cf = solve_conv_multi(list(names))
        assert equivalent(cf, ref, 0), names
    # quadruple spot value at the aligned index
    ident = catalog_index(load_manifest())["conv_FTQP"]
    assert ex.evaluate(ident.lhs, 9) == 1 == ex.evaluate(ident.rhs, 9)
    print(f"PASS solver-vs-closed-forms: {len(pair_refs)} pairs and "
          f"{len(multi_refs)} multi-factor convolutions kernel-equivalent")


def test_table_grid_resolves_every_cell():
    cells = table(9, oracle_n=100)
    assert len(cells) == 28
    labels = {(c["m"], c["p"]): c for c in cells}
    for c in cells:
        assert c["gf_equal"], (c["m"], c["p"])
        assert c["oracle_ok"] and c["oracle_max_n"] >= 100
        assert c["case_equivalent"] in (None, True)
    for mp in ((2, 7), (3, 6), (5, 4)):
        assert labels[mp]["label"] == "general-solver"
    assert labels[(2, 1)]["label"] == "p=1"
    # a previously open cell beyond the grid bound, solved the same way
    extra = solve_conv_multi([make_mstep(4), make_mstep(10)])
    assert extra.gf_equal and extra.check_oracle(100)
    assert cli_main(["table", "--max", "9"]) == 0
    print("PASS table-grid: 28 cells solved, GF-verified, oracle-checked to "
          "n=100 (open cells included)")


def test_misprint_regressions():
    by_id = catalog_index(load_manifest())
    printed = by_id["printed_partial_sum_m4"]
    ok, rep = negative_as_documented(printed, 200)
    assert ok and not rep.passed
    assert ex.evaluate(printed.lhs, 3) == 4
    assert ex.evaluate(printed.rhs, 3) == Fraction(8, 3)
    for m in range(2, 9):
        assert verify_numeric(by_id[f"partial_sum_m{m}"], 200).passed
    printed_tq = by_id["printed_pow2_TQ"]
    ok, rep = negative_as_documented(printed_tq, 200)
    assert ok and not rep.passed
    assert ex.evaluate(printed_tq.lhs, 2) == 1
    assert ex.evaluate(printed_tq.rhs, 2) == 5
    assert verify_numeric(by_id["pow2_TQ"], 200).passed
    print("PASS misprint-regressions: printed forms fail exactly as recorded, "
          "corrected index forms pass to n=200")


def test_pattern_search_rediscovers_known_solutions(verify_solution):
    total = 0
    for m in range(2, 7):
        sols = search(m, p_max=14, k_card_max=3, k_span_max=6)
        assert PatternSolution(m, (0,), 2 * m + 2, Fraction(4), 2 * m) in sols
        if m == 2:
            assert PatternSolution(2, (0, 2), 4, Fraction(5), 4) in sols
        for sol in sols:
            assert verify_solution(sol, 50)
        total += len(sols)
    print(f"PASS pattern-search: known window-sum identities rediscovered, "
          f"{total} solutions all independently verified")


def _convolve_tables(tables, n_max):
    acc = tables[0][: n_max + 1]
    for nxt in tables[1:]:
        acc = [
            sum(acc[j] * nxt[b - j] for j in range(b + 1)) for b in range(n_max + 1)
        ]
    return acc


def test_order_reduction_identities():
    n_max = 40
    for m in (2, 3):
        for ell in (1, 2):
            shift = ell * (m + ell - 1)
            diffs = []
            for j in range(ell):
                hi = handle(make_mstep(m + 2 * j + 1))
                lo = handle(make_mstep(m + 2 * j))
                diffs.append([
                    hi.term(i) - lo.term(i) for i in range(n_max + 1)
                ])
            even_factors = [make_mstep(m + j) for j in range(2 * ell)]
            even_rhs = _convolve_tables(diffs, n_max)
            for n in range(n_max + 1):
                assert conv_multi(even_factors, n - shift) == even_rhs[n], (m, ell, n)
            odd_factors = [make_mstep(m + j) for j in range(2 * ell + 1)]
            extra = handle(make_mstep(m + 2 * ell)).values(n_max + 1)
            odd_rhs = _convolve_tables(diffs + [list(extra)], n_max)
            for n in range(n_max + 1):
                assert conv_multi(odd_factors, n - shift) == odd_rhs[n], (m, ell, n)
    print("PASS order-reduction: even and odd reductions agree with the "
          "oracle on both sides for n <= 40 (l=1,2; m=2,3)")


def test_oracle_coherence():
    pairs = 0
    for factors in REGISTERED_TUPLES:
        if len(factors) > 4:
            continue
        for n in range(26):
            assert conv_multi(factors, n) == multi_index_sum_direct(
                factors, len(factors), n)
        pairs += 1
    print(f"PASS oracle-coherence: conv_multi == direct enumeration for "
          f"{pairs} factor tuples, n <= 25")
