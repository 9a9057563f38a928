import hashlib
import json
from fractions import Fraction

import pytest

from mstep import closed_form_solver as solver
from mstep import expressions as ex
from mstep.closed_form_solver import (
    CaseNotApplicable,
    ClosedForm,
    NonCoprime,
    RepeatedFactor,
    cell_label,
    derive_case,
    equivalent,
    solve_conv_multi,
    table,
)
from mstep.convolution_oracle import conv_multi
from mstep.sequences import handle, make_mstep, resolve
from mstep.series_algebra import gf_of, poly_gcd, series_coeffs


def reference_fq():
    return ex.add(ex.term("Q", 1), ex.term("Q", -1), ex.scale(-1, ex.term("F", 1)))


def test_solve_fq_matches_closed_form():
    cf = solve_conv_multi([resolve("F"), resolve("Q")])
    assert cf.gf_equal
    assert equivalent(cf, reference_fq(), 0)
    assert cf.evaluate(4) == 5
    assert cf.check_oracle(100)


def test_solve_f_hexanacci():
    cf = solve_conv_multi([resolve("F"), resolve("hexanacci")])
    ref = ex.scale(Fraction(1, 5), ex.add(
        ex.term("hexanacci", 3), ex.term("hexanacci", 1),
        ex.scale(-1, ex.term("hexanacci")), ex.scale(3, ex.term("hexanacci", -1)),
        ex.term("hexanacci", -3),
        ex.scale(-1, ex.term("F", 3)), ex.scale(-1, ex.term("F", 1))))
    assert equivalent(cf, ref, 0)
    assert cf.evaluate(3) == 2


def test_solve_f_octanacci():
    cf = solve_conv_multi([resolve("F"), resolve("octanacci")])
    ref = ex.scale(Fraction(1, 4), ex.add(
        ex.term("octanacci", 3), ex.scale(-1, ex.term("octanacci")),
        ex.scale(2, ex.term("octanacci", -1)), ex.term("octanacci", -3),
        ex.scale(-1, ex.term("F", 3))))
    assert equivalent(cf, ref, 0)
    assert cf.evaluate(4) == 5


def test_solve_pow2_with_fibonacci():
    cf = solve_conv_multi([resolve("pow2"), resolve("F")])
    ref = ex.sub(ex.term("pow2", 1), ex.term("F", 3))
    assert equivalent(cf, ref, 0)
    assert cf.evaluate(4) == 19
    assert cf.check_oracle(80)


def test_noncoprime_rejected_with_factor():
    from mstep.series_algebra import Poly

    with pytest.raises(NonCoprime) as info:
        solve_conv_multi([resolve("pow2"), resolve("jacobsthal")])
    assert info.value.common == Poly((1, -2))


def test_repeated_factor_rejected():
    with pytest.raises(RepeatedFactor):
        solve_conv_multi([resolve("F"), resolve("F")])


def test_solve_multi_triple_and_quadruple():
    ftq = solve_conv_multi(["F", "T", "Q"])
    assert equivalent(ftq, ex.add(
        ex.term("Q", 4), ex.term("Q", 2), ex.scale(-1, ex.term("T", 5)),
        ex.term("F", 3)), 0)
    assert ftq.evaluate(3) == 1
    ftqp = solve_conv_multi(["F", "T", "Q", "P"])
    assert ftqp.evaluate(4) == 1
    assert ftqp.check_oracle(60)


def test_solve_single_factor_is_identity():
    cf = solve_conv_multi(["F"])
    assert cf.parts == ((resolve("F"), {0: Fraction(1)}),)
    assert all(cf.evaluate(n) == conv_multi(["F"], n) for n in range(30))


def test_equivalent_accepts_recurrence_rewrites():
    cf = solve_conv_multi([resolve("F"), resolve("Q")])
    # rewrite Q_{n+1} via the Tetranacci recurrence: still the same function
    rewritten = ex.add(
        ex.term("Q"), ex.term("Q", -1), ex.term("Q", -2), ex.term("Q", -3),
        ex.term("Q", -1), ex.scale(-1, ex.term("F", 1)))
    assert equivalent(cf, rewritten, 1)


def test_equivalent_rejects_perturbation():
    cf = solve_conv_multi([resolve("F"), resolve("Q")])
    wrong = ex.add(ex.term("Q", 1), ex.scale(2, ex.term("Q", -1)),
                   ex.scale(-1, ex.term("F", 1)))
    assert not equivalent(cf, wrong, 0)


def test_equivalent_rejects_a_noncompilable_reference():
    cf = solve_conv_multi([resolve("F"), resolve("Q")])
    with pytest.raises(ValueError, match="does not compile"):
        equivalent(cf, ex.mul(ex.term("F"), ex.term("Q")), 0)


def test_derive_case_hexanacci_tetranacci():
    d = derive_case(4, 2)  # raises unless the derivation is proved
    assert d.case == "p|m" and d.ell == 2
    # aligned form carries the explicit leftover terms 2 s_{n-6} + s_{n-5}
    others = [t for t in d.rhs.terms if not isinstance(t, ex.ConvAtom)]
    assert others == [ex.term("hexanacci", -5), ex.scale(2, ex.term("hexanacci", -6))]
    assert ex.evaluate(d.lhs, 8) == 8
    conv_part = [t for t in d.rhs.terms if isinstance(t, ex.ConvAtom)][0]
    assert ex.evaluate(conv_part, 8) == 4


def test_derive_case_proves_its_aligned_identity(monkeypatch):
    # Drop the last other-term from derive_case(4, 2)'s aligned identity; its
    # closed form is untouched, so only the identity's GF proof can object.
    derive_div_case = solver._derive_div_case

    def lose_an_other_term(*args, **kwargs):
        lhs, rhs, closed = derive_div_case(*args, **kwargs)
        return lhs, ex.add(*rhs.terms[:-1]), closed

    monkeypatch.setattr(solver, "_derive_div_case", lose_an_other_term)
    with pytest.raises(AssertionError, match="GF proof"):
        derive_case(4, 2)


def test_derive_case_rejects_a_perturbed_other_term(monkeypatch):
    # Double the coefficient of one other-term, 2 s_{n-6} -> 4 s_{n-6}.
    derive_div_case = solver._derive_div_case

    def perturb_an_other_term(*args, **kwargs):
        lhs, rhs, closed = derive_div_case(*args, **kwargs)
        *rest, last = rhs.terms
        assert last == ex.scale(2, ex.term("hexanacci", -6))
        return lhs, ex.add(*rest, ex.scale(4, ex.term("hexanacci", -6))), closed

    monkeypatch.setattr(solver, "_derive_div_case", perturb_an_other_term)
    with pytest.raises(AssertionError, match="GF proof: case_m4_p2"):
        derive_case(4, 2)


def test_derive_case_rejects_a_side_that_does_not_compile(monkeypatch):
    derive_quadruple_case = solver._derive_quadruple_case

    def hadamard_lhs(*args, **kwargs):
        _, rhs, closed = derive_quadruple_case(*args, **kwargs)
        return ex.mul(ex.term("F"), ex.term("octanacci")), rhs, closed

    monkeypatch.setattr(solver, "_derive_quadruple_case", hadamard_lhs)
    with pytest.raises(AssertionError, match="GF proof: case_m2_p6"):
        derive_case(2, 6)


def test_derive_case_reproduces_shifted_fq_kernel():
    d = derive_case(2, 2)
    assert d.rhs == ex.conv(ex.term("Q"), ex.term("F", 2), offset=-3)
    cf = solve_conv_multi([resolve("F"), resolve("Q")])
    assert equivalent(cf, d.closed_expr, 0)
    assert equivalent(cf, reference_fq(), 0)


def test_derive_case_octanacci():
    d = derive_case(2, 6)  # raises unless the derivation is proved
    assert d.case == "p=2m+2"


def test_derive_case_rejects_uncovered_cell():
    with pytest.raises(CaseNotApplicable):
        derive_case(2, 4)
    with pytest.raises(CaseNotApplicable):
        derive_case(1, 2)


def test_denominators_pairwise_coprime():
    msteps = {m: gf_of(make_mstep(m)).den for m in range(2, 13)}
    for a in range(2, 13):
        for b in range(a + 1, 13):
            assert poly_gcd(msteps[a], msteps[b]).degree == 0
    for extra in ("pell", "jacobsthal", "pow2"):
        d = gf_of(resolve(extra)).den
        for m in range(2, 13):
            assert poly_gcd(d, msteps[m]).degree == 0


def test_cell_labels():
    assert cell_label(2, 1) == "p=1"
    assert cell_label(4, 2) == "p|m"
    assert cell_label(3, 2) == "p|m+1"
    assert cell_label(2, 6) == "p=2m+2"
    assert cell_label(2, 4) == "general-solver"


def test_small_table():
    cells = table(7, oracle_n=40)
    assert len(cells) == 15
    for c in cells:
        assert c["gf_equal"] and c["oracle_ok"]
        assert c["case_equivalent"] in (None, True)


def test_closed_form_json_schema():
    cf = solve_conv_multi([resolve("F"), resolve("P")])
    cf.check_oracle(50)
    doc = cf.to_json()
    assert set(doc) == {"factors", "parts", "corrections", "verified"}
    assert doc["factors"] == ["F", "P"]
    for part in doc["parts"]:
        assert set(part) == {"seq", "terms"}
        for t in part["terms"]:
            assert set(t) == {"shift", "coeff"} and isinstance(t["coeff"], str)
    assert doc["verified"] == {"gf_equal": True, "oracle_max_n": 50}


def test_reconstruction_equals_product_gf():
    for names in (("F", "T"), ("T", "P"), ("pell", "Q"), ("F", "T", "Q")):
        cf = solve_conv_multi(list(names))
        product = gf_of(resolve(names[0]))
        for nm in names[1:]:
            product = product * gf_of(resolve(nm))
        assert cf.gf() == product


def test_reconstruction_rejects_a_perturbed_closed_form():
    cf = solve_conv_multi(["F", "T", "Q"])
    product = gf_of(resolve("F")) * gf_of(resolve("T")) * gf_of(resolve("Q"))
    assert cf.gf() == product
    (name, combo), rest = cf.parts[0], cf.parts[1:]
    top = max(combo)
    wrong_coeff = ClosedForm(cf.factors, ((name, {**combo, top: combo[top] + 1}),) + rest, {})
    assert wrong_coeff.gf() != product
    wrong_corr = ClosedForm(cf.factors, cf.parts, {2: Fraction(1)})
    assert wrong_corr.gf() != product


def test_check_oracle_rejects_a_wrong_coefficient_or_correction():
    lucas = resolve("F")._replace(name="lucas", seeds=(2, 1))
    cf = solve_conv_multi([lucas, "T"])
    assert cf.corrections and cf.check_oracle(40)
    (spec, combo), rest = cf.parts[0], cf.parts[1:]
    top = max(combo)
    wrong_coeff = ClosedForm(cf.factors, ((spec, {**combo, top: combo[top] + 1}),) + rest,
                             cf.corrections)
    wrong_at_0 = ClosedForm(cf.factors, cf.parts, {0: cf.corrections[0] + 1})
    wrong_at_top = ClosedForm(cf.factors, cf.parts, {**cf.corrections, 40: Fraction(1, 3)})
    for wrong in (wrong_coeff, wrong_at_0, wrong_at_top):
        assert not wrong.check_oracle(40)
        assert wrong.oracle_max_n == -1
    # a correction past n_max is outside the checked range
    late = ClosedForm(cf.factors, cf.parts, {**cf.corrections, 41: Fraction(1)})
    assert late.check_oracle(40) and late.oracle_max_n == 40
    assert not late.check_oracle(41) and late.oracle_max_n == 40
    late_wrong = ClosedForm(wrong_coeff.factors, wrong_coeff.parts, {**cf.corrections, 41: 1})
    assert not late_wrong.check_oracle(40) and late_wrong.oracle_max_n == -1


@pytest.mark.parametrize("others, digest", [
    (["T"], "f951e801f738dfeb8db490569071d531ad904f6ce0e71af52893b4327f7fbcb6"),
    (["pow2", "T", "pell"], "725cc36fd8596af2e2341629b44a31904725a23c5d29b3b7a57971ba74ec7591"),
    (["jacobsthal", "Q"], "cd24414a98c797b91b44ccdf10fd6a23c1a50be4929496768375373592baa908"),
], ids=["T", "pow2-T-pell", "jacobsthal-Q"])
def test_a_non_monomial_numerator_solve_is_pinned_by_its_digest(others, digest):
    """The Lucas numbers' GF numerator 2 - x takes the Bezout rewrite, whose
    leftover polynomial lands in the corrections."""
    lucas = resolve("F")._replace(name="lucas", seeds=(2, 1))
    cf = solve_conv_multi([lucas, *others])
    assert cf.corrections and cf.check_oracle(60)
    doc = json.dumps(cf.to_json()) + "\n" + cf.text()
    assert hashlib.sha256(doc.encode()).hexdigest() == digest


def test_combo_gf_is_the_one_sided_shift_combination():
    import random

    rng = random.Random(11)
    for name in ("F", "T", "pell", "pow2", "F1"):
        spec = resolve(name)
        h = handle(name)
        for _ in range(5):
            combo = {rng.randint(-4, 5): Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                     for _ in range(rng.randint(1, 4))}
            want = [sum(c * h.term(n + s) for s, c in combo.items()) for n in range(40)]
            tree = ex.add(*[ex.scale(c, ex.term(spec, s)) for s, c in combo.items()])
            assert series_coeffs(ex.gf_of_expr(tree), 40) == want


def test_table_solves_each_cell_once(monkeypatch):
    import mstep.closed_form_solver as cfs

    calls = []
    real = cfs.solve_conv_multi
    monkeypatch.setattr(cfs, "solve_conv_multi", lambda specs: calls.append(1) or real(specs))
    cells = table(7, oracle_n=20)
    assert len(calls) == len(cells) == 15


def test_random_coprime_multisets_match_oracle():
    import random

    rng = random.Random(31)
    pool = ["F", "T", "Q", "P", "hexanacci", "heptanacci", "octanacci",
            "pell", "jacobsthal", "pow2", "F1", "F9"]
    solved = 0
    while solved < 12:
        names = rng.sample(pool, rng.randint(2, 3))
        try:
            cf = solve_conv_multi(names)
        except NonCoprime:
            continue
        assert cf.gf_equal
        assert all(cf.evaluate(n) == conv_multi(names, n) for n in range(61))
        solved += 1
