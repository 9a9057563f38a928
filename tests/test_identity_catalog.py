import hashlib
import json
import random
from fractions import Fraction

import pytest

from mstep import expressions as ex
from mstep import manifest_build
from mstep.identity_catalog import (
    Identity,
    catalog_index,
    identity_from_json,
    identity_gfs,
    identity_to_json,
    kernel_check,
    load_manifest,
    manifest_document,
    negative_as_documented,
    verdict,
    verify_numeric,
    verify_symbolic,
)
from mstep.manifest_build import build_identities
from mstep.sequences import handle, registry


@pytest.fixture(scope="module")
def catalog():
    return load_manifest()


@pytest.fixture(scope="module")
def by_id(catalog):
    return catalog_index(catalog)


def test_manifest_loads_and_is_rich(catalog):
    assert len(catalog) >= 45
    assert len({i.id for i in catalog}) == len(catalog)


def test_json_round_trip_keeps_every_built_entry(catalog):
    for ident in catalog:
        assert identity_from_json(identity_to_json(ident)) == ident


def test_exported_catalog_loads_back_as_built(tmp_path, capsys):
    manifest_build.main()
    out = capsys.readouterr().out
    assert out == json.dumps(manifest_document(build_identities()), indent=1) + "\n"
    path = tmp_path / "catalog.json"
    path.write_text(out)
    assert load_manifest(str(path)) == build_identities()


# SHA-256 of the exported catalog document: any change to an id, the order,
# a tree, an n0, a params dict or a quote changes it.  Update it only with a
# deliberate change to the catalog.
CATALOG_SHA256 = "5648a589495320c3c27d91a84516c56129b228a82a21df353ec3083d9d63199c"


def test_built_catalog_is_pinned_by_its_digest():
    doc = json.dumps(manifest_document(build_identities()), indent=1)
    assert hashlib.sha256(doc.encode()).hexdigest() == CATALOG_SHA256


# SHA-256 of both generating functions of every entry as ``gfcheck`` prints
# them, "<id>\nlhs: <lhs>\nrhs: <rhs>\n" per entry in id order: any change
# to a printed GF changes it.
GFS_SHA256 = "2aa576b4627aad3ac9e9e3d334f8fddf6201f38ffb5208ba2511dd7c12fd24dd"


def _gfs_digest(idents) -> str:
    text = "".join(f"{i.id}\nlhs: {lhs}\nrhs: {rhs}\n"
                   for i in sorted(idents, key=lambda i: i.id)
                   for lhs, rhs in [identity_gfs(i)])
    return hashlib.sha256(text.encode()).hexdigest()


def test_printed_gfs_are_pinned_by_their_digest(catalog, tmp_path, capsys):
    """The built-in catalog and its exported JSON print the same GFs."""
    manifest_build.main()
    path = tmp_path / "catalog.json"
    path.write_text(capsys.readouterr().out)
    loaded = load_manifest(str(path))
    assert len(catalog) == len(loaded) == 291
    assert _gfs_digest(catalog) == _gfs_digest(loaded) == GFS_SHA256


def test_every_parameter_appears_in_its_id(catalog):
    with_params = [i for i in catalog if i.params]
    assert len(with_params) > 200
    for ident in with_params:
        for key, value in ident.params.items():
            assert f"{key}{value}" in ident.id.split("_"), (ident.id, key, value)


def test_identities_built_without_params_do_not_share_a_dict():
    a = Identity("a", "seq", ex.const(0), ex.const(0))
    b = Identity("b", "seq", ex.const(0), ex.const(0))
    a.params["m"] = 2
    assert b.params == {} and a.params is not b.params


def test_tf_convolution_passes_to_200(by_id):
    rep = verify_numeric(by_id["conv_TF"], 200)
    assert rep.passed and rep.mode == "numeric"


def test_verify_numeric_rejects_an_empty_range(by_id):
    ident = next(i for i in by_id.values() if i.kind == "seq" and i.n0 >= 2 and not i.negative)
    assert verify_numeric(ident, ident.n0).passed
    with pytest.raises(ValueError, match="below n0"):
        verify_numeric(ident, ident.n0 - 1)


def test_corrected_partial_sums_pass(by_id):
    for m in range(2, 9):
        assert verify_numeric(by_id[f"partial_sum_m{m}"], 200).passed


def test_printed_partial_sum_fails_as_documented(by_id):
    ident = by_id["printed_partial_sum_m4"]
    ok, rep = negative_as_documented(ident, 200)
    assert ok and not rep.passed
    assert ex.evaluate(ident.lhs, 3) == 4
    assert ex.evaluate(ident.rhs, 3) == Fraction(8, 3)
    with pytest.raises(ValueError, match="below first_fail n 1"):
        negative_as_documented(ident, 0)


def test_printed_tq_pow2_fails_as_documented(by_id):
    ident = by_id["printed_pow2_TQ"]
    ok, rep = negative_as_documented(ident, 200)
    assert ok and not rep.passed
    assert ex.evaluate(ident.lhs, 2) == 1
    assert ex.evaluate(ident.rhs, 2) == 5
    assert verify_numeric(by_id["pow2_TQ"], 200).passed


def test_verdict_on_a_misprint_is_the_run_with_the_catalog_decision(by_id):
    ident = by_id["printed_pow2_TQ"]
    ok, raw = negative_as_documented(ident, 200)
    for symbolic in (False, True):
        rep = verdict(ident, 200, symbolic)
        assert rep == raw._replace(passed=ok, negative=True)
        assert rep.passed and rep.first_failure == {"n": 0, "lhs": "0", "rhs": "1"}
    assert verdict(by_id["pow2_TQ"], 200).negative is False


def test_kernel_check_recurrence_combo():
    assert kernel_check("F", {2: 1, 1: -1, 0: -1}, None, 1)


def test_kernel_check_five_f_window():
    combo = {4: 5 - 1, 0: -1, 1: -1, 2: -2, 3: -2, 5: -1}
    assert kernel_check("F", combo, None, 0)


def test_kernel_check_rejects_nonzero():
    assert not kernel_check("F", {0: 1}, None, 0)


def test_kernel_check_with_corrections():
    # F_n + F_{n+1} + F_{n+2} - F_{n+3} leaves the residue F_n behind.
    assert kernel_check("F", {0: 1, 1: 1, 2: 1, 3: -1}, None, 1) is False
    assert kernel_check("T", {0: 1, 1: 1, 2: 1, 3: -1}, None, 0)
    # F_{n-1} + F_n - F_{n+1} vanishes for n >= 1 but needs a correction at 0.
    assert kernel_check("F", {-1: 1, 0: 1, 1: -1}, None, 0) is False
    assert kernel_check("F", {-1: 1, 0: 1, 1: -1}, {0: 1}, 0)


def test_kernel_check_agrees_with_direct_evaluation():
    rng = random.Random(99)
    specs = list(registry().values())
    for _ in range(100):
        spec = rng.choice(specs)
        h = handle(spec)
        combo = {
            rng.randint(-3, 6): Fraction(rng.randint(-4, 4))
            for _ in range(rng.randint(1, 4))
        }
        n0 = rng.randint(0, 3)
        direct = all(
            sum(c * h.term(n + s) for s, c in combo.items()) == 0
            for n in range(n0, n0 + 51)
        )
        assert kernel_check(spec, combo, None, n0) == direct


def test_symbolic_and_numeric_cohere(by_id):
    sample = [
        "conv_FQ", "conv_TF", "pgap_m2_p3", "pow2_F", "alt_even_m2",
        "pell_FF_npoly", "conv_FTQ", "window4_m3", "wsum_11T", "altsum_P",
        "conv_TQP", "jacobsthal_m5", "reduce_odd_l2_m3", "quad_switch_m2",
    ]
    for ident_id in sample:
        ident = by_id[ident_id]
        sym = verify_symbolic(ident)
        assert sym is not None and sym.passed, ident_id
        assert verify_numeric(ident, 120).passed, ident_id


def test_all_seq_entries_compile_or_fall_back(catalog):
    # verdict(symbolic=True) must never crash; it either proves the GF form
    # or falls back to the numeric check.
    for ident in catalog:
        if ident.kind == "seq" and not ident.negative:
            rep = verdict(ident, 60, symbolic=True)
            assert rep.passed, ident.id


def test_symbolic_fallback_for_noncompilable():
    from mstep.identity_catalog import Identity

    hadamard = ex.mul(ex.term("F"), ex.term("T"))
    ident = Identity("adhoc_hadamard", "seq", hadamard, hadamard, 0)
    assert verify_symbolic(ident) is None
    assert verdict(ident, 30, symbolic=True).mode == "numeric"


def test_gf_entries_sample(by_id):
    for ident_id in ("gf_adjacent_m3", "gf_triple_m2_p1_q3", "gf_quad_m2",
                     "gf_remark_T_pell_R", "gf_jacobsthal_m5"):
        assert verify_symbolic(by_id[ident_id]).passed


def test_report_json_shape(by_id):
    rep = verify_numeric(by_id["conv_FQ"], 50).to_json()
    assert rep == {"id": "conv_FQ", "mode": "numeric", "pass": True}
    bad = verify_numeric(by_id["printed_partial_sum_m4"], 50).to_json()
    assert bad["pass"] is False and set(bad["first_failure"]) == {"n", "lhs", "rhs"}
