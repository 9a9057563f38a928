import functools
import json
from pathlib import Path

import pytest

from mstep.cli import main
from mstep.expressions import MAX_DEPTH, MAX_SHIFT

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
    from mstep.closed_form_solver import ClosedForm

    real = ClosedForm.evaluate
    monkeypatch.setattr(ClosedForm, "evaluate", lambda self, n: real(self, n) + 1)
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
])
def test_inputs_above_the_caps_exit_2(capsys, argv):
    code, out = run(capsys, *argv)
    doc = json.loads(out)
    assert code == 2 and doc["error"] == "ValueError" and "exceeds the cap" in doc["detail"]


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
])
def test_manifest_malformed_leaf_is_a_json_error(tmp_path, capsys, kind, lhs, fields):
    rhs = ["seqgf", "F"] if kind == "gf" else ["term", "F", 0]
    entry = {"id": "bad_leaf", "kind": kind, "lhs": lhs or rhs, "rhs": rhs, "n0": 0, **fields}
    code, doc = _verify_manifest(tmp_path, capsys, {"identities": [entry]})
    assert code == 2 and doc["error"] == "ValueError" and "bad_leaf" in doc["detail"]
    code, doc = _verify_manifest(tmp_path, capsys, {"identities": [entry]}, "--symbolic")
    assert code == 2 and doc["error"] == "ValueError" and "bad_leaf" in doc["detail"]


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


# "@" stands for the number under test: "1/0" (a zero denominator) or a JSON
# 1e400 (infinity after parsing).
@pytest.mark.parametrize("kind, lhs", [
    pytest.param("seq", ["const", "@"], id="const"),
    pytest.param("seq", ["scale", "@", ["term", "F", 0]], id="scale"),
    pytest.param("seq", ["npoly", ["1", "@"]], id="npoly"),
    pytest.param("gf", ["poly", ["0", "@"]], id="gf-poly"),
])
@pytest.mark.parametrize("number", ['"1/0"', "1e400"])
def test_manifest_number_that_does_not_convert_is_a_json_error(tmp_path, capsys, kind,
                                                               lhs, number):
    rhs = ["seqgf", "F"] if kind == "gf" else ["term", "F", 0]
    text = _one_entry({"id": "bad_number", "kind": kind, "lhs": lhs, "rhs": rhs, "n0": 0})
    text = text.replace('"@"', number)
    for detail in _manifest_error_in_verify_and_gfcheck(tmp_path, capsys, text, "bad_number"):
        assert "bad_number" in detail


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
    entry = {"id": "twice", "kind": "seq", "lhs": ["term", "F", 0],
             "rhs": ["term", "F", 0], "n0": 0}
    code, doc = _verify_manifest(tmp_path, capsys, {"identities": [entry, entry]})
    assert code == 2 and doc["error"] == "ValueError" and "twice" in doc["detail"]


def test_exported_catalog_reads_back_byte_identical(tmp_path, capsys, monkeypatch):
    from mstep import identity_catalog
    from mstep.manifest_build import build_identities, manifest_document

    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(manifest_document(build_identities()), indent=1))
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
