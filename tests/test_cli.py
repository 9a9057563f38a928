import functools
import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mstep import expressions as ex
from mstep.cli import main
from mstep.identity_catalog import MAX_DEPTH, MAX_NPOLY_DEGREE, MAX_SHIFT
from mstep.sequences import MAX_DEN_DEGREE
from mstep.series_algebra import Poly

SRC = Path(__file__).resolve().parent.parent / "src"
README = Path(__file__).resolve().parent.parent / "README.md"
REF_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "ref"
# The command that recorded each perfbench/ref/<name>.txt (perfbench/README.md).
REF_COMMANDS = {
    "catalog": ["verify", "--all", "--max-n", "200"],
    "catalog-symbolic": ["verify", "--all", "--max-n", "200", "--symbolic"],
    "table-12": ["table", "--max", "12"],
    **{f"search-m{m}": ["search", "--m", str(m), "--max-p", "14", "--max-k", "3",
                        "--max-span", "6"] for m in range(2, 7)},
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_seq_text(capsys):
    code, out = run(capsys, "seq", "--name", "T", "--from", "0", "--to", "5")
    assert code == 0 and out == "0 1 1 2 4 7\n"


def test_seq_json_uses_strings(capsys):
    code, out = run(capsys, "seq", "--name", "F9", "--from", "200", "--to", "200",
                    "--format", "json")
    doc = json.loads(out)
    assert code == 0 and doc["name"] == "F9"
    assert isinstance(doc["terms"][0], str) and len(doc["terms"][0]) > 50


def test_conv_values(capsys):
    code, out = run(capsys, "conv", "--factors", "F,T,Q", "--n", "5")
    assert code == 0 and out == "0 0 0 1 3 9\n"


def test_conv_json_matches_pointwise_oracle(capsys):
    from mstep.convolution_oracle import conv_multi

    code, out = run(capsys, "conv", "--factors", "pell,T", "--n", "40", "--format", "json")
    doc = json.loads(out)
    assert code == 0 and doc["factors"] == ["pell", "T"]
    assert doc["values"] == [str(conv_multi(["pell", "T"], n)) for n in range(41)]


def test_unknown_sequence_is_usage_error(capsys):
    code, out = run(capsys, "seq", "--name", "nope", "--from", "0", "--to", "3")
    doc = json.loads(out)
    assert code == 2 and "nope" in doc["detail"]


def test_malformed_flags_produce_json_error(capsys):
    code, out = run(capsys, "seq", "--name", "F")
    assert code == 2
    assert json.loads(out)["error"] == "usage"


def test_verify_single_identity(capsys):
    code, out = run(capsys, "verify", "--id", "conv_FQ")
    assert code == 0
    assert "PASS conv_FQ" in out and "identities: all pass" in out


def test_verify_unknown_id(capsys):
    code, out = run(capsys, "verify", "--id", "nope")
    assert code == 2 and json.loads(out)["error"] == "KeyError"


def test_verify_below_n0_is_an_error_not_a_pass(capsys):
    code, out = run(capsys, "verify", "--all", "--max-n", "-5")
    doc = json.loads(out)
    assert code == 2 and doc["error"] == "ValueError"
    assert "below n0" in doc["detail"]
    code, out = run(capsys, "verify", "--id", "conv_FQ", "--max-n", "-1")
    assert code == 2 and json.loads(out)["error"] == "ValueError"


@pytest.mark.parametrize("select", [["--id", "conv_FT"], ["--id", "gf_adjacent_m3"], ["--all"]],
                         ids=["seq-id", "gf-id", "all"])
@pytest.mark.parametrize("flags", [[], ["--symbolic"]], ids=["numeric", "symbolic"])
def test_verify_negative_max_n_is_an_error_with_and_without_symbolic(capsys, select, flags):
    """A negative --max-n is an empty range for every entry, so not even a
    GF proof may pass under it."""
    code, out = run(capsys, "verify", *select, "--max-n", "-7", *flags)
    doc = json.loads(out)
    assert code == 2 and doc["error"] == "ValueError"
    assert "n_max -7 is below n0" in doc["detail"]


def test_verify_missing_manifest_is_a_json_error(tmp_path, capsys):
    missing = str(tmp_path / "nonexistent.json")
    code, out = run(capsys, "verify", "--all", "--manifest", missing)
    doc = json.loads(out)
    assert code == 2 and doc["error"] == "FileNotFoundError"
    assert "nonexistent.json" in doc["detail"]


def test_verify_json_report_schema(capsys):
    code, out = run(capsys, "verify", "--id", "conv_FQ", "--format", "json",
                    "--max-n", "50")
    reports = json.loads(out)
    assert code == 0 and reports == [
        {"id": "conv_FQ", "mode": "numeric", "pass": True}]


def test_verify_symbolic_mode(capsys):
    code, out = run(capsys, "verify", "--id", "conv_FQ", "--symbolic")
    assert code == 0 and "PASS conv_FQ (symbolic)" in out


def test_verify_negative_entry_json(capsys):
    code, out = run(capsys, "verify", "--id", "printed_pow2_TQ", "--format", "json")
    report = json.loads(out)[0]
    assert code == 0
    assert report["pass"] is True and report["negative"] is True
    assert report["first_failure"]["n"] == 0


def test_verify_a_misprint_short_of_its_recorded_failure_is_an_error(capsys):
    """printed_partial_sum_m4 first fails at n = 1, outside 0..0: like a range
    below n0, a range that cannot reach the recorded failure exits 2."""
    for fmt in ("text", "json"):
        code, out = run(capsys, "verify", "--id", "printed_partial_sum_m4", "--max-n", "0",
                        "--format", fmt)
        doc = json.loads(out)
        assert code == 2 and doc["error"] == "ValueError"
        assert "below first_fail n 1" in doc["detail"]
    code, out = run(capsys, "verify", "--id", "printed_partial_sum_m4", "--max-n", "1")
    assert code == 0 and "documented misprint, fails as recorded" in out


def _four_outcome_manifest(tmp_path) -> str:
    """A pass, a misprint that fails as recorded, a misprint whose record is
    wrong, and a misprint that passes: every outcome verify can print."""
    from mstep import identity_catalog
    from mstep.manifest_build import build_identities

    doc = identity_catalog.manifest_document(build_identities())
    by_id = {e["id"]: e for e in doc["identities"]}
    printed = by_id["printed_pow2_TQ"]
    wrong_record = json.loads(json.dumps(printed))
    wrong_record["id"] = "printed_pow2_TQ_wrong_record"
    wrong_record["negative"]["first_fail"]["rhs"] = "7"
    passes = dict(by_id["pow2_TQ"], id="printed_pow2_TQ_passes", negative=printed["negative"])
    path = tmp_path / "four.json"
    path.write_text(json.dumps({"version": 1, "identities": [
        by_id["conv_FT"], printed, passes, wrong_record]}))
    return str(path)


def test_verify_prints_every_outcome_of_the_four(tmp_path, capsys):
    path = _four_outcome_manifest(tmp_path)
    code, out = run(capsys, "verify", "--all", "--manifest", path)
    assert code == 1 and out == (
        "PASS conv_FT (numeric)\n"
        "PASS printed_pow2_TQ (numeric) [documented misprint, fails as recorded]\n"
        "FAIL printed_pow2_TQ_passes (numeric) [UNEXPECTED behaviour] first_failure=None\n"
        "FAIL printed_pow2_TQ_wrong_record (numeric) [UNEXPECTED behaviour]"
        " first_failure={'n': 0, 'lhs': '0', 'rhs': '1'}\n"
        "identities: 2 failed\n")
    code, out = run(capsys, "verify", "--all", "--manifest", path, "--format", "json")
    failure = {"n": 0, "lhs": "0", "rhs": "1"}
    assert code == 1 and out == json.dumps([  # key order too: "negative" comes last
        {"id": "conv_FT", "mode": "numeric", "pass": True},
        {"id": "printed_pow2_TQ", "mode": "numeric", "pass": True, "first_failure": failure,
         "negative": True},
        {"id": "printed_pow2_TQ_passes", "mode": "numeric", "pass": False, "negative": True},
        {"id": "printed_pow2_TQ_wrong_record", "mode": "numeric", "pass": False,
         "first_failure": failure, "negative": True},
    ]) + "\n"


@pytest.mark.parametrize("flags, digest", [
    ([], "0a5cc75ec990b6acb98a59f93de50efbd0677eb6288196cfcadd485eea7dc464"),
    (["--symbolic"], "01b0e18ac0495f00cd7084810a8d6cc6847a5ce5b03e1de897c29a7cfc71c3ea"),
], ids=["numeric", "symbolic"])
def test_verify_all_json_is_pinned_by_its_digest(capsys, flags, digest):
    code, out = run(capsys, "verify", "--all", "--max-n", "200", "--format", "json", *flags)
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest


# jacobsthal and pow2 give the only pinned denominators whose leading coefficient is -2
@pytest.mark.parametrize("argv, digest", [
    (["table", "--max", "14"], "e8b202b57980f5ad1f7446d13e895f7b154c690d3da8da8060a9de5ee92187fa"),
    (["solve", "--factors", "jacobsthal,F,T,Q,P"],
     "ffd84a36f0f92fb3c5929c689e00b5b239895bc1d480b9e071527925a6ee4d94"),
    (["solve", "--factors", "pow2,pell,T,F7"],
     "bc4701fbb9f2ebdf2c6f0de28738c5669285da292fdd60a7c9fb300c9af184f8"),
    (["solve", "--factors", "F1,pow2,F,pell,T,Q,P"],
     "95e24fd0cb72f63acde7fbf490148085c2a1e4dd289c82f5e0d2cd534c848e55"),
], ids=["table-14", "jacobsthal-F-T-Q-P", "pow2-pell-T-F7", "F1-pow2-F-pell-T-Q-P"])
def test_solver_json_is_pinned_by_its_digest(capsys, argv, digest):
    code, out = run(capsys, *argv, "--format", "json")
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest


def test_every_poly_the_cli_builds_has_int_coefficients(monkeypatch, capsys):
    """Rationals enter only through RatFun: no Poly built by these commands,
    memoised GFs and terms rebuilt, holds a coefficient that is not an int."""
    built, init = [0, 0], Poly.__init__  # Polys built, non-int coefficients seen

    def counting_init(self, coeffs=()):
        init(self, coeffs)
        built[0] += 1
        built[1] += sum(type(c) is not int for c in self.coeffs)

    monkeypatch.setattr(Poly, "__init__", counting_init)
    ex.clear_caches()
    for argv in (["verify", "--all", "--max-n", "200"],
                 ["verify", "--all", "--max-n", "200", "--symbolic"],
                 ["table", "--max", "12"],
                 ["search", "--m", "4", "--max-p", "14", "--max-k", "3", "--max-span", "6"],
                 ["solve", "--factors", "jacobsthal,F,T,Q,P"],
                 ["solve", "--factors", "pow2,pell,T,F7"],
                 ["solve", "--factors", "F1,pow2,F,pell,T,Q,P"]):
        assert run(capsys, *argv)[0] == 0, argv
    ex.clear_caches()
    assert built[0] > 5000 and built[1] == 0, built


def test_solve_latex_form(capsys):
    code, out = run(capsys, "solve", "--factors", "F,Q", "--format", "latex")
    assert code == 0
    assert out.strip() == "- F_{n+1} + Q_{n+1} + Q_{n-1}"


def test_solve_json_schema_and_determinism(capsys):
    code1, out1 = run(capsys, "solve", "--factors", "F,hexanacci")
    code2, out2 = run(capsys, "solve", "--factors", "F,hexanacci")
    assert code1 == code2 == 0 and out1 == out2
    doc = json.loads(out1)
    assert doc["factors"] == ["F", "hexanacci"]
    assert doc["verified"]["gf_equal"] is True
    assert doc["verified"]["oracle_max_n"] == 100


def test_solve_noncoprime_exit_2(capsys):
    code, out = run(capsys, "solve", "--factors", "pow2,jacobsthal")
    doc = json.loads(out)
    assert code == 2 and doc["error"] == "NonCoprime" and "1 - 2*x" in doc["detail"]


_SHARE_2X = "denominators of {} share the factor 1 - 2*x"


@pytest.mark.parametrize("factors, error, detail", [
    ("F,pow2,jacobsthal", "NonCoprime", _SHARE_2X.format("pow2*jacobsthal")),
    ("jacobsthal,F,pow2", "NonCoprime", _SHARE_2X.format("jacobsthal*pow2")),
    ("T,F,Q,F", "RepeatedFactor", "repeated denominator 1 - x - x^2 (F, F)"),
    # the first pair in factor order wins over the later repeat of pow2
    ("pow2,F,jacobsthal,pow2", "NonCoprime", _SHARE_2X.format("pow2*jacobsthal")),
])
def test_solve_names_the_first_shared_factor_among_three_or_more(capsys, factors, error, detail):
    code, out = run(capsys, "solve", "--factors", factors)
    assert code == 2 and json.loads(out) == {"error": error, "detail": detail}


def test_table_small(capsys):
    code, out = run(capsys, "table", "--max", "6", "--oracle-n", "30")
    assert code == 0
    assert "cells: 10/10 solved and verified" in out


@pytest.mark.parametrize("max_sum", ["2", "-5"])
def test_table_on_an_empty_grid_is_an_error_not_a_pass(capsys, max_sum):
    code, out = run(capsys, "table", "--max", max_sum)
    doc = json.loads(out)
    assert code == 2 and doc["error"] == "ValueError" and "no cell" in doc["detail"]


def test_solve_exits_1_when_the_oracle_check_fails(capsys, monkeypatch):
    from mstep import closed_form_solver

    real = closed_form_solver.conv_multi_prefix
    monkeypatch.setattr(closed_form_solver, "conv_multi_prefix",
                        lambda specs, n_max: [v + 1 for v in real(specs, n_max)])
    code, out = run(capsys, "solve", "--factors", "F,T", "--format", "text")
    assert code == 1
    assert out == "- F[n+1] - F[n] + T[n+1] + T[n] + T[n-1]\n"


@pytest.mark.parametrize("argv", [
    ["seq", "--name", "F100000000", "--to", "3"],
    ["solve", "--factors", "F,F100000000"],
    ["seq", "--name", "F", "--to", "1000000000"],
    ["seq", "--name", "F", "--from", "-1000000000", "--to", "0"],
    ["conv", "--factors", "F,T", "--n", "1000000000"],
    ["solve", "--factors", "F,T", "--oracle-n", "1000000000"],
    ["table", "--max", "4", "--oracle-n", "1000000000"],
    ["verify", "--all", "--max-n", "1000000"],
    ["verify", "--id", "conv_FQ", "--max-n", "1000000", "--symbolic"],
    ["table", "--max", "500", "--oracle-n", "0"],
    ["conv", "--factors", ",".join(["F"] * 13), "--n", "3"],
    ["solve", "--factors", ",".join(f"F{m}" for m in range(1, 14)), "--oracle-n", "0"],
    ["search", "--m", "2", "--max-p", "1000000000"],
    ["search", "--m", "2", "--max-k", "1000000000"],
    ["search", "--m", "2", "--max-span", "1000000000"],
    ["search", "--m", "2", "--l-window", "1000000000"],
    ["solve", "--factors", "F250,F251", "--oracle-n", "0"],  # summed order 501
])
def test_inputs_above_the_caps_exit_2(capsys, argv):
    code, out = run(capsys, *argv)
    doc = json.loads(out)
    assert code == 2 and doc["error"] == "ValueError" and "exceeds the cap" in doc["detail"]
    if "F250,F251" in argv:
        assert f"exceeds the cap {MAX_DEN_DEGREE}" in doc["detail"]


def test_solve_at_the_summed_order_cap(capsys):
    """Summed order 500, the product GF's degree at sequences.MAX_DEN_DEGREE
    (the slowest shape at the cap is timed beside that constant)."""
    code, out = run(capsys, "solve", "--factors", "F249,F251", "--oracle-n", "0")
    doc = json.loads(out)
    assert code == 0 and doc["verified"]["gf_equal"] is True


def test_readme_caps_table_names_each_cap_where_it_lives():
    """Each row's `module.CONSTANT` resolves and equals the row's cap."""
    text = README.read_text()
    table = text[text.index("| input | cap | constant |"):].split("\n\n", 1)[0]
    rows = table.splitlines()[2:]
    assert len(rows) >= 15
    for row in rows:
        cap, constant = (cell.strip(" `") for cell in row.strip("|").rsplit("|", 2)[1:])
        module, name = constant.split(".")
        assert getattr(importlib.import_module(f"mstep.{module}"), name) == int(cap), row


@pytest.mark.parametrize("argv", [
    ["conv", "--factors", "F,T", "--n", "-1"],
    ["seq", "--name", "F", "--from", "5", "--to", "2"],
])
def test_empty_ranges_are_an_error_not_an_empty_line(capsys, argv):
    code, out = run(capsys, *argv)
    doc = json.loads(out)
    assert code == 2 and doc["error"] == "ValueError" and "empty" in doc["detail"]


@pytest.mark.parametrize("name", sorted(p.stem for p in REF_DIR.glob("*.txt")))
def test_stdout_matches_the_benchmark_reference(capsys, name):
    code, out = run(capsys, *REF_COMMANDS[name])
    assert code == 0
    assert out.encode() == (REF_DIR / f"{name}.txt").read_bytes()


def test_search_json_lines(capsys):
    code, out = run(capsys, "search", "--m", "2", "--max-p", "6", "--max-k", "2",
                    "--max-span", "3")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert {"m": 2, "K": [0, 2], "p": 4, "N": "5", "l": 4, "integerN": True} in lines


def test_gfcheck_gf_entry(capsys):
    code, out = run(capsys, "gfcheck", "--id", "gf_adjacent_m2")
    assert code == 0 and "verdict: equal" in out


def test_gfcheck_seq_entry(capsys):
    code, out = run(capsys, "gfcheck", "--id", "conv_FQ")
    assert code == 0 and "verdict: equal" in out


def test_gfcheck_handles_validity_threshold(capsys):
    # valid only from n0 on: both sides may differ by a low-degree polynomial
    code, out = run(capsys, "gfcheck", "--id", "conv_TQP")
    assert code == 0 and "verdict: equal" in out


def test_manifest_override(tmp_path, capsys):
    from mstep import expressions as ex
    from mstep.identity_catalog import Identity, identity_to_json

    ident = Identity("tiny", "seq", ex.term("F", 2),
                     ex.add(ex.term("F", 1), ex.term("F")), 1)
    path = tmp_path / "mini.json"
    path.write_text(json.dumps({"version": 1,
                                "identities": [identity_to_json(ident)]}))
    code, out = run(capsys, "verify", "--all", "--manifest", str(path))
    assert code == 0 and "PASS tiny" in out


def test_manifest_side_that_does_not_compile(tmp_path, capsys):
    """gfcheck prints the side that does not compile and exits 1;
    verify --symbolic falls back to the numeric check."""
    path = tmp_path / "hadamard.json"
    path.write_text(json.dumps({"identities": [{
        "id": "hadamard", "kind": "seq", "n0": 0,
        "lhs": ["product", ["term", "F", 0], ["term", "T", 0]], "rhs": ["term", "F", 0]}]}))
    code, out = run(capsys, "gfcheck", "--id", "hadamard", "--manifest", str(path))
    assert code == 1 and out == (
        "lhs: NotCompilable('pointwise product of two non-scalar sequences')\n"
        "rhs: x/(1 - x - x^2)\n"
        "verdict: not-compilable\n")
    code, out = run(capsys, "verify", "--all", "--symbolic", "--manifest", str(path))
    assert code == 1 and out.startswith("FAIL hadamard (numeric) first_failure=")


def test_negative_oracle_n_is_an_error_not_a_pass(capsys):
    code, out = run(capsys, "table", "--max", "4", "--oracle-n", "-1")
    doc = json.loads(out)
    assert code == 2 and doc["error"] == "ValueError" and "empty" in doc["detail"]
    code, out = run(capsys, "solve", "--factors", "F,T", "--oracle-n", "-3")
    doc = json.loads(out)
    assert code == 2 and doc["error"] == "ValueError" and "empty" in doc["detail"]


def test_negative_l_window_is_a_json_error(capsys):
    code, out = run(capsys, "search", "--m", "2", "--l-window", "-4")
    assert code == 2 and json.loads(out)["error"] == "ValueError"


@pytest.mark.parametrize("flag, value, floor", [
    ("--m", "1", 2), ("--max-p", "0", 1), ("--max-k", "0", 1), ("--max-span", "-1", 0),
    ("--l-window", "-1", 0)])
def test_search_names_the_bound_it_refuses(capsys, flag, value, floor):
    argv = ["search", "--m", "3", flag, value]
    code, out = run(capsys, *argv)
    assert code == 2 and json.loads(out) == {
        "error": "ValueError", "detail": f"{flag} = {value} is below {floor}: the range is empty"}


def _verify_manifest(tmp_path, capsys, doc, *flags):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "verify", "--all", "--manifest", str(path), *flags)
    return code, json.loads(out)


def test_manifest_seq_term_without_shift_is_a_json_error(tmp_path, capsys):
    entry = {"id": "bad_term", "kind": "seq", "lhs": ["term", "F"],
             "rhs": ["term", "F", 0], "n0": 0}
    code, doc = _verify_manifest(tmp_path, capsys, {"identities": [entry]})
    assert code == 2 and doc["error"] == "ValueError" and "bad_term" in doc["detail"]


def test_manifest_gf_node_without_operand_is_a_json_error(tmp_path, capsys):
    entry = {"id": "bad_gf", "kind": "gf", "lhs": ["seqgf"],
             "rhs": ["seqgf", "F"], "n0": 0}
    code, doc = _verify_manifest(tmp_path, capsys, {"identities": [entry]})
    assert code == 2 and doc["error"] == "ValueError" and "bad_gf" in doc["detail"]


_FAIL = {"n": 5, "lhs": "5", "rhs": "6"}


# Each case sets one leaf or scalar field of an otherwise valid entry.
@pytest.mark.parametrize("kind, lhs, fields", [
    pytest.param("gf", ["poly", 5], {}, id="gf-lhs0"),
    pytest.param("gf", ["poly", [[1]]], {}, id="gf-lhs1"),
    pytest.param("gf", ["seqgf", 7], {}, id="gf-lhs2"),
    pytest.param("seq", ["conv", [], 0], {}, id="seq-lhs3"),
    pytest.param("seq", ["term", 7, 0], {}, id="seq-lhs4"),
    pytest.param("seq", ["sum"], {}, id="sum-empty"),
    pytest.param("seq", ["product"], {}, id="product-empty"),
    pytest.param("seq", ["term", "F", 1.5], {}, id="term-shift-float"),
    pytest.param("seq", ["term", "F", True], {}, id="term-shift-bool"),
    pytest.param("seq", ["term", "F", "1"], {}, id="term-shift-str"),
    pytest.param("seq", ["alt", 1.5], {}, id="alt-offset-float"),
    pytest.param("seq", ["geo2", True], {}, id="geo2-offset-bool"),
    pytest.param("seq", ["conv", [["term", "F", 0]], 1.5], {}, id="conv-offset-float"),
    pytest.param("seq", ["npoly", "12"], {}, id="npoly-str"),
    pytest.param("seq", ["scale", "2", ["term", "F", 0], ["term", "T", 5]], {},
                 id="scale-extra-operand"),
    pytest.param("seq", ["term", "F", 0, 7], {}, id="term-extra-operand"),
    pytest.param("seq", None, {"id": ["bad_leaf"]}, id="id-list"),
    pytest.param("seq", None, {"n0": "3"}, id="n0-str"),
    pytest.param("seq", None, {"n0": 1.5}, id="n0-float"),
    pytest.param("seq", None, {"n0": -5}, id="n0-negative"),
    pytest.param("seq", None, {"n0": True}, id="n0-bool"),
    pytest.param("seq", None, {"negative": {"note": "x"}}, id="negative-no-first_fail"),
    pytest.param("seq", None, {"negative": {}}, id="negative-empty"),
    pytest.param("seq", None, {"negative": 5}, id="negative-int"),
    pytest.param("seq", None, {"negative": {"first_fail": 5}}, id="first_fail-int"),
    pytest.param("seq", None, {"negative": {"first_fail": {"n": 5}}}, id="first_fail-n-only"),
    pytest.param("seq", None, {"negative": {"first_fail": {**_FAIL, "n": "5"}}},
                 id="first_fail-n-str"),
    pytest.param("seq", None, {"negative": {"first_fail": {**_FAIL, "n": True}}},
                 id="first_fail-n-bool"),
    pytest.param("seq", None, {"negative": {"first_fail": {**_FAIL, "lhs": 5}}},
                 id="first_fail-lhs-int"),
    pytest.param("seq", None, {"negative": {"first_fail": {**_FAIL, "rhs": None}}},
                 id="first_fail-rhs-null"),
    pytest.param("seq", None, {"n0": 6, "negative": {"first_fail": _FAIL}},
                 id="first_fail-below-n0"),
    pytest.param("gf", None, {"n0": 3}, id="gf-n0"),
])
def test_manifest_malformed_leaf_is_a_json_error(tmp_path, capsys, kind, lhs, fields):
    rhs = ["seqgf", "F"] if kind == "gf" else ["term", "F", 0]
    entry = {"id": "bad_leaf", "kind": kind, "lhs": lhs or rhs, "rhs": rhs, "n0": 0, **fields}
    code, doc = _verify_manifest(tmp_path, capsys, {"identities": [entry]})
    assert code == 2 and doc["error"] == "ValueError" and "bad_leaf" in doc["detail"]
    code, doc = _verify_manifest(tmp_path, capsys, {"identities": [entry]}, "--symbolic")
    assert code == 2 and doc["error"] == "ValueError" and "bad_leaf" in doc["detail"]


def test_manifest_gf_entry_with_a_negative_block_is_a_json_error(tmp_path, capsys):
    """The file is refused whole: the good entry sorts first and is not verified."""
    good = {"id": "a_good", "kind": "seq", "lhs": ["term", "F", 0], "rhs": ["term", "F", 0]}
    bad = {"id": "b_negative_gf", "kind": "gf", "lhs": ["seqgf", "F"], "rhs": ["seqgf", "F"],
           "negative": {"first_fail": _FAIL}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"identities": [good, bad]}))
    for argv in (["verify", "--id", "a_good"], ["gfcheck", "--id", "b_negative_gf"],
                 ["verify", "--all"]):
        code, out = run(capsys, *argv, "--manifest", str(path))
        doc = json.loads(out)
        assert code == 2 and doc["error"] == "ValueError", (argv, doc)
        assert "b_negative_gf" in doc["detail"] and "negative" in doc["detail"]


@pytest.mark.parametrize("divisor", [
    ["sub", ["seqgf", "F"], ["seqgf", "F"]],
    ["poly", ["0"]],
])
def test_manifest_zero_divisor_is_a_json_error(tmp_path, capsys, divisor):
    entry = {"id": "zero_div", "kind": "gf", "lhs": ["div", ["seqgf", "F"], divisor],
             "rhs": ["seqgf", "F"], "n0": 0}
    code, doc = _verify_manifest(tmp_path, capsys, {"identities": [entry]})
    assert code == 2 and doc["error"] == "ValueError" and "zero_div" in doc["detail"]
    code, out = run(capsys, "gfcheck", "--id", "zero_div",
                    "--manifest", str(tmp_path / "bad.json"))
    doc = json.loads(out)
    assert code == 2 and doc["error"] == "ValueError" and "zero_div" in doc["detail"]


def test_manifest_order_above_the_cap_is_a_json_error(tmp_path, capsys):
    entry = {"id": "huge_order", "kind": "seq", "lhs": ["term", "F100000000", 0],
             "rhs": ["term", "F", 0], "n0": 0}
    code, doc = _verify_manifest(tmp_path, capsys, {"identities": [entry]})
    assert code == 2 and doc["error"] == "ValueError" and "exceeds the cap" in doc["detail"]


@pytest.mark.parametrize("node", [
    lambda s: ["term", "F", s],
    lambda s: ["alt", s],
    lambda s: ["geo2", s],
    lambda s: ["conv", [["term", "F", 0]], s],
], ids=["term", "alt", "geo2", "conv"])
def test_manifest_shift_above_the_cap_is_a_json_error(tmp_path, capsys, node):
    for s in (MAX_SHIFT + 1, -MAX_SHIFT - 1):
        entry = {"id": "far", "kind": "seq", "lhs": node(s), "rhs": node(0), "n0": 0}
        code, doc = _verify_manifest(tmp_path, capsys, {"identities": [entry]})
        assert code == 2 and doc["error"] == "ValueError"
        assert "far" in doc["detail"] and "exceeds the cap" in doc["detail"]
    for s in (MAX_SHIFT, -MAX_SHIFT):
        entry = {"id": "at_cap", "kind": "seq", "lhs": node(s), "rhs": node(s), "n0": 0}
        path = tmp_path / "cap.json"
        path.write_text(json.dumps({"identities": [entry]}))
        for mode, flags in (("numeric", ()), ("symbolic", ("--symbolic",))):
            code, out = run(capsys, "verify", "--all", "--manifest", str(path), *flags)
            assert code == 0 and f"PASS at_cap ({mode})" in out


def _npoly(degree: int) -> list:
    return ["npoly", ["1"] + ["0"] * (degree - 1) + ["1"]]


# Sides whose npoly degrees sum to `d`: one node, or two nested through a conv.
@pytest.mark.parametrize("side", [
    lambda d: ["product", _npoly(d), ["term", "F", 0]],
    lambda d: ["product", _npoly(d // 2), ["conv", [["product", _npoly(d - d // 2),
                                                     ["term", "T", 1]]], 0]],
], ids=["one-node", "nested"])
def test_manifest_npoly_degree_above_the_cap_is_a_json_error(tmp_path, capsys, side):
    entry = {"id": "steep", "kind": "seq", "lhs": ["term", "F", 0],
             "rhs": side(MAX_NPOLY_DEGREE + 1), "n0": 0}
    for flags in ((), ("--symbolic",)):
        code, doc = _verify_manifest(tmp_path, capsys, {"identities": [entry]}, *flags)
        assert code == 2 and doc["error"] == "ValueError"
        assert "steep" in doc["detail"] and f"exceeds the cap {MAX_NPOLY_DEGREE}" in doc["detail"]
    entry = {"id": "at_cap", "kind": "seq", "lhs": side(MAX_NPOLY_DEGREE),
             "rhs": side(MAX_NPOLY_DEGREE), "n0": 0}
    path = tmp_path / "cap.json"
    path.write_text(json.dumps({"identities": [entry]}))
    for mode, flags in (("numeric", ()), ("symbolic", ("--symbolic",))):
        code, out = run(capsys, "verify", "--all", "--manifest", str(path), *flags)
        assert code == 0 and f"PASS at_cap ({mode})" in out


@pytest.mark.parametrize("above", [
    ["conv", [["term", f"F{MAX_DEN_DEGREE}", 0]], 0],  # a lone kernel adds 1 - x
    ["sum", ["term", f"F{MAX_DEN_DEGREE}", 0], ["product", ["alt", 0], ["term", "F1", 0]]],
    ["product", ["npoly", ["0", "1"]], ["term", f"F{MAX_DEN_DEGREE // 2 + 1}", 0]],
], ids=["conv", "alt", "npoly"])
def test_manifest_denominator_degree_above_the_cap_is_a_json_error(tmp_path, capsys, above):
    entry = {"id": "wide", "kind": "seq", "lhs": ["term", "F", 0], "rhs": above, "n0": 0}
    for flags in ((), ("--symbolic",)):
        code, doc = _verify_manifest(tmp_path, capsys, {"identities": [entry]}, *flags)
        assert code == 2 and doc["error"] == "ValueError"
        assert "wide" in doc["detail"] and f"exceeds the cap {MAX_DEN_DEGREE}" in doc["detail"]
    side = ["sum", ["term", f"F{MAX_DEN_DEGREE}", 2], ["term", f"F{MAX_DEN_DEGREE}", -1]]
    entry = {"id": "at_cap", "kind": "seq", "lhs": side, "rhs": side, "n0": 0}
    path = tmp_path / "cap.json"
    path.write_text(json.dumps({"identities": [entry]}))
    for mode, flags in (("numeric", ()), ("symbolic", ("--symbolic",))):
        code, out = run(capsys, "verify", "--all", "--manifest", str(path), *flags)
        assert code == 0 and f"PASS at_cap ({mode})" in out


@pytest.mark.parametrize("above", [
    ["mul", ["seqgf", f"F{MAX_DEN_DEGREE // 2}"], ["seqgf", f"F{MAX_DEN_DEGREE // 2 + 1}"]],
    ["div", ["poly", ["1"]], ["poly", ["1"] * (MAX_DEN_DEGREE + 2)]],
    ["add", ["seqgf", "F1"], ["subneg", ["neg", ["poly", ["1"] * (MAX_DEN_DEGREE + 1)]]]],
], ids=["seqgf", "poly", "nested"])
def test_manifest_gf_degree_above_the_cap_is_a_json_error(tmp_path, capsys, above):
    """A gf side's summed leaf degree bounds its RatFun's degrees; one
    above sequences.MAX_DEN_DEGREE is refused before anything compiles."""
    entry = {"id": "wide_gf", "kind": "gf", "lhs": ["seqgf", "F"], "rhs": above}
    for detail in _manifest_error_in_verify_and_gfcheck(tmp_path, capsys, _one_entry(entry),
                                                        "wide_gf"):
        assert "wide_gf" in detail and f"GF degree bound {MAX_DEN_DEGREE + 1}" in detail
        assert f"exceeds the cap {MAX_DEN_DEGREE}" in detail


def test_manifest_gf_side_at_the_cap_verifies(tmp_path, capsys):
    half = f"F{MAX_DEN_DEGREE // 2}"
    side = ["add", ["mul", ["seqgf", half], ["seqgf", half]], ["poly", ["0"]]]
    path = tmp_path / "cap.json"
    path.write_text(_one_entry({"id": "at_cap", "kind": "gf", "lhs": side, "rhs": side[1]}))
    for mode, flags in (("numeric", ()), ("symbolic", ("--symbolic",))):
        code, out = run(capsys, "verify", "--all", "--manifest", str(path), *flags)
        assert code == 0 and "PASS at_cap" in out
    code, out = run(capsys, "gfcheck", "--id", "at_cap", "--manifest", str(path))
    assert code == 0


def _manifest_error_in_verify_and_gfcheck(tmp_path, capsys, text, ident):
    """Both commands that read a manifest exit 2 with the JSON ValueError;
    returns the three error details."""
    path = tmp_path / "bad.json"
    path.write_text(text)
    details = []
    for argv in (["verify", "--all"], ["verify", "--all", "--symbolic"],
                 ["gfcheck", "--id", ident]):
        code, out = run(capsys, *argv, "--manifest", str(path))
        doc = json.loads(out)
        assert code == 2 and doc["error"] == "ValueError", (argv, doc)
        details.append(doc["detail"])
    return details


def _one_entry(entry) -> str:
    return json.dumps({"identities": [entry]})


# "@" stands for the number under test: "1/0" (a zero denominator), a
# number in exponent form, refused in every spelling (a JSON 1e400, 1E3 or
# 2.5e-1, or the string "1e5000"), or a JSON true (a boolean, not the
# number 1).
@pytest.mark.parametrize("kind, lhs", [
    pytest.param("seq", ["const", "@"], id="const"),
    pytest.param("seq", ["scale", "@", ["term", "F", 0]], id="scale"),
    pytest.param("seq", ["npoly", ["1", "@"]], id="npoly"),
    pytest.param("gf", ["poly", ["0", "@"]], id="gf-poly"),
])
@pytest.mark.parametrize("number", ['"1/0"', "1e400", '"1e5000"', "true", "1E3", "2.5e-1"])
def test_manifest_number_that_does_not_convert_is_a_json_error(tmp_path, capsys, kind,
                                                               lhs, number):
    rhs = ["seqgf", "F"] if kind == "gf" else ["term", "F", 0]
    text = _one_entry({"id": "bad_number", "kind": kind, "lhs": lhs, "rhs": rhs, "n0": 0})
    text = text.replace('"@"', number)
    for detail in _manifest_error_in_verify_and_gfcheck(tmp_path, capsys, text, "bad_number"):
        assert "bad_number" in detail


def test_manifest_decimal_is_read_exactly(tmp_path, capsys):
    """A JSON 0.1 is 1/10, not the binary float nearest it."""
    path = tmp_path / "tenth.json"
    path.write_text(
        '{"identities": ['
        '{"id": "tenth_seq", "kind": "seq", "lhs": ["scale", 0.1, ["term", "F", 0]],'
        ' "rhs": ["scale", "1/10", ["term", "F", 0]]},'
        '{"id": "tenth_gf", "kind": "gf", "lhs": ["mul", ["poly", [0.1, -0.25]], ["seqgf", "F"]],'
        ' "rhs": ["mul", ["poly", ["1/10", "-1/4"]], ["seqgf", "F"]]}]}')
    for flags in ((), ("--symbolic",)):
        code, out = run(capsys, "verify", "--all", "--manifest", str(path), *flags)
        assert code == 0 and "identities: all pass" in out, out
    for ident in ("tenth_seq", "tenth_gf"):
        code, out = run(capsys, "gfcheck", "--id", ident, "--manifest", str(path))
        assert code == 0 and "verdict: equal" in out, out


def _chain(tag: str, leaf: list, depth: int) -> str:
    """JSON text of a tree `depth` nodes deep: one-operand `tag` nodes
    around `leaf` (written by hand: json.dumps cannot nest 2,000 deep)."""
    return f'["{tag}", ' * (depth - 1) + json.dumps(leaf) + "]" * (depth - 1)


_CHAINS = {"seq": ("sum", ["term", "F", 0]), "gf": ("add", ["seqgf", "F"])}


@pytest.mark.parametrize("kind", ["seq", "gf"])
@pytest.mark.parametrize("depth", [MAX_DEPTH + 1, 500])
def test_manifest_tree_above_the_depth_cap_is_a_json_error(tmp_path, capsys, kind, depth):
    tag, leaf = _CHAINS[kind]
    text = (f'{{"identities": [{{"id": "too_deep", "kind": "{kind}", "n0": 0, '
            f'"lhs": {_chain(tag, leaf, depth)}, "rhs": {json.dumps(leaf)}}}]}}')
    for detail in _manifest_error_in_verify_and_gfcheck(tmp_path, capsys, text, "too_deep"):
        assert "too_deep" in detail and f"cap {MAX_DEPTH}" in detail


def test_manifest_nested_too_deep_to_parse_is_a_json_error(tmp_path, capsys):
    text = ('{"identities": [{"id": "deeper", "kind": "seq", "n0": 0, "lhs": '
            + _chain("sum", ["term", "F", 0], 2000) + ', "rhs": ["term", "F", 0]}]}')
    for detail in _manifest_error_in_verify_and_gfcheck(tmp_path, capsys, text, "deeper"):
        assert "nested too deeply" in detail


@pytest.mark.parametrize("kind", ["seq", "gf"])
def test_manifest_tree_at_the_depth_cap_passes(tmp_path, capsys, kind):
    tag, leaf = _CHAINS[kind]
    path = tmp_path / "deep.json"
    path.write_text(f'{{"identities": [{{"id": "at_depth", "kind": "{kind}", "n0": 0, '
                    f'"lhs": {_chain(tag, leaf, MAX_DEPTH)}, "rhs": {json.dumps(leaf)}}}]}}')
    for flags in ((), ("--symbolic",)):
        code, out = run(capsys, "verify", "--all", "--manifest", str(path), *flags)
        assert code == 0 and "PASS at_depth" in out


def test_manifest_top_level_list_is_a_json_error(tmp_path, capsys):
    code, doc = _verify_manifest(tmp_path, capsys, [1, 2])
    assert code == 2 and doc["error"] == "ValueError" and "identities" in doc["detail"]


def test_manifest_repeated_id_is_a_json_error(tmp_path, capsys):
    """Each repeated id is named once, in sorted order."""
    def entry(id_):
        return {"id": id_, "kind": "seq", "lhs": ["term", "F", 0], "rhs": ["term", "F", 0],
                "n0": 0}

    ids = ["zeta", "alpha", "zeta", "mid", "alpha", "zeta"]
    code, doc = _verify_manifest(tmp_path, capsys, {"identities": [entry(i) for i in ids]})
    assert code == 2 and doc == {"error": "ValueError",
                                 "detail": "duplicate identity ids in manifest: ['alpha', 'zeta']"}


@pytest.mark.parametrize("flags", [[], ["--symbolic"], ["--format", "json"]])
def test_empty_manifest_is_an_error_not_a_pass(tmp_path, capsys, flags):
    code, doc = _verify_manifest(tmp_path, capsys, {"version": 1, "identities": []}, *flags)
    assert code == 2 and doc["error"] == "ValueError" and "no identities" in doc["detail"]


def test_exported_catalog_reads_back_byte_identical(tmp_path, capsys, monkeypatch):
    from mstep import identity_catalog
    from mstep.manifest_build import build_identities

    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(identity_catalog.manifest_document(build_identities()), indent=1))
    for flags in ([], ["--symbolic"], ["--format", "json"], ["--format", "json", "--symbolic"]):
        built = run(capsys, "verify", "--all", "--max-n", "200", *flags)
        assert built[0] == 0
        assert run(capsys, "verify", "--all", "--max-n", "200", "--manifest", str(path),
                   *flags) == built
    # gfcheck loads a whole catalog per id: load each source once.
    monkeypatch.setattr(identity_catalog, "load_manifest",
                        functools.lru_cache(identity_catalog.load_manifest))
    for ident in build_identities():
        built = run(capsys, "gfcheck", "--id", ident.id)
        assert run(capsys, "gfcheck", "--id", ident.id, "--manifest", str(path)) == built


def _python(*args):
    """Run a fresh interpreter with this checkout's package on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


# Runs one command, then prints the mstep modules whose code has run (a
# module not yet used is still a lazy subclass of ModuleType) and whether
# dataclasses was imported.
_LOADED = """
import json, sys, types
import mstep.cli
mstep.cli.main(sys.argv[1:])
loaded = sorted(name for name, mod in sys.modules.items()
                if name.split(".")[0] == "mstep" and type(mod) is types.ModuleType)
print(json.dumps([loaded, "dataclasses" in sys.modules]))
"""


def _loaded_by(*argv):
    proc = _python("-c", _LOADED, *argv)
    assert proc.returncode == 0, proc.stderr
    loaded, dataclasses = json.loads(proc.stdout.splitlines()[-1])
    return set(loaded), dataclasses


def test_each_command_runs_only_the_layers_it_uses():
    loaded, dataclasses = _loaded_by("search", "--m", "2")
    assert loaded == {"mstep", "mstep.cli", "mstep.sequences", "mstep.pattern_search"}
    assert not dataclasses
    loaded, _ = _loaded_by("seq", "--name", "F", "--to", "3")
    assert loaded == {"mstep", "mstep.cli", "mstep.sequences"}
    loaded, dataclasses = _loaded_by("verify", "--id", "conv_JF")
    assert "mstep.identity_catalog" in loaded
    assert not loaded & {"mstep.closed_form_solver", "mstep.pattern_search",
                         "mstep.convolution_oracle"}
    assert not dataclasses
    for argv in (["solve", "--factors", "F,T"], ["table", "--max", "4"]):
        loaded, dataclasses = _loaded_by(*argv)
        assert "mstep.closed_form_solver" in loaded, argv
        assert not loaded & {"mstep.identity_catalog", "mstep.pattern_search"}, argv
        assert not dataclasses, argv
    assert not _loaded_by("gfcheck", "--id", "gf_adjacent_m2")[1]


def test_every_exported_name_resolves():
    # A name left in the lazy export table after its function is gone would
    # fail only when someone imports it.
    import mstep

    for name in mstep.__all__:
        assert getattr(mstep, name) is not None, name


@pytest.mark.parametrize("argv", [["mstep.cli", "seq", "--name", "F", "--to", "3"],
                                  ["mstep.manifest_build"]])
def test_python_m_runs_without_a_runpy_warning(argv):
    # runpy warns when the module given to -m is in sys.modules already, as
    # it would be if the package registered it lazily.
    proc = _python("-W", "error", "-m", *argv)
    assert proc.returncode == 0, proc.stderr


def _to_closed_stdout(unbuffered, *argv):
    # The read end is closed before the child starts, so its first write to
    # stdout (in print when unbuffered, else in the final flush) fails.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run([sys.executable, "-m", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, text=True)
    finally:
        os.close(write_end)


@pytest.mark.parametrize("unbuffered", ["1", None])
def test_a_closed_stdout_exits_141_without_a_traceback(unbuffered):
    proc = _to_closed_stdout(unbuffered, "mstep.cli", "seq", "--name", "F", "--to", "10")
    assert (proc.returncode, proc.stderr) == (141, "")


@pytest.mark.parametrize("unbuffered", ["1", None])
def test_manifest_export_to_a_closed_stdout_exits_141(unbuffered):
    # as `python -m mstep.manifest_build | head -1` does once head exits
    proc = _to_closed_stdout(unbuffered, "mstep.manifest_build")
    assert (proc.returncode, proc.stderr) == (141, "")


@pytest.mark.parametrize("command", ["verify", "gfcheck"])
def test_unknown_id_is_a_json_error(capsys, command):
    code, out = run(capsys, command, "--id", "no_such_entry")
    assert code == 2 and json.loads(out) == {
        "error": "KeyError", "detail": "unknown identity id: no_such_entry"}


@pytest.mark.parametrize("name", ["F\u0663", "F\u00b2"])  # Arabic-Indic three, superscript two
def test_f_name_with_non_ascii_digits_is_unknown(tmp_path, capsys, name):
    code, out = run(capsys, "seq", "--name", name, "--to", "4")
    assert code == 2 and json.loads(out) == {
        "error": "KeyError", "detail": f"unknown sequence name: {name!r}"}
    entry = {"id": "digits", "kind": "seq", "lhs": ["term", name, 0],
             "rhs": ["term", "T", 0], "n0": 0}
    code, doc = _verify_manifest(tmp_path, capsys, {"identities": [entry]})
    assert code == 2 and doc["error"] == "ValueError"
    assert f"(digits) is malformed: KeyError(\"unknown sequence name: {name!r}\")" in doc["detail"]
