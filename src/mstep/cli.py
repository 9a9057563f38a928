"""Batch command-line front end.

Subcommands: seq, conv, verify, solve, table, search, gfcheck.  Output is
deterministic text or JSON (rationals and big integers rendered as strings
so nothing loses precision).  Exit codes: 0 success / all checks pass,
1 verification failure, 2 usage or solver errors and inputs above the
caps below (reported as a JSON object {"error": ..., "detail": ...} on
stdout), 141 when stdout closes early (as in `mstep table | head -1`),
the status a shell reports for SIGPIPE.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# Layers as modules: mstep loads each on its first attribute read, so a
# command runs only the layers it uses.
from . import closed_form_solver as solver
from . import convolution_oracle as oracle
from . import expressions as ex
from . import identity_catalog as catalog
from . import pattern_search, sequences
from . import series_algebra as sa

# Caps on numeric input, so that one invocation stays within seconds and
# bounded memory; a larger value exits 2.  Times at each cap, best of three
# cold runs, 2-vCPU VM, Python 3.11: `seq --name F --to 10000` 0.5 s, `conv`
# with 12 factors (F,T,Q,P,F6,...,F13) and `--n 1000` 1.9 s, `solve
# --factors F,T,Q,P --oracle-n 500` 0.2 s, `table --max 14 --oracle-n 500`
# 2.0 s, `verify --all --max-n 2000` 0.8 s (31 MB), `search` at the four
# search caps under 0.2 s for each of m = 2, 6, 12, 16, 100, 500.  The
# m-step order and `solve`'s summed order of the factors, the product GF's
# denominator degree, share the one degree cap sequences.MAX_DEN_DEGREE,
# whose comment times the slowest shapes found at it.  The caps on a
# --manifest live with its format in identity_catalog.
MAX_SEQ_INDEX = 10_000  # seq --to
MAX_SEQ_TERMS = 10_001  # seq terms printed: --to - --from + 1
MAX_CONV_N = 1_000  # conv --n: the naive oracle costs O(n^2) products per factor
MAX_ORACLE_N = 500  # solve and table --oracle-n: the same oracle, once per cell
MAX_FACTORS = 12  # conv and solve --factors: each factor is one more oracle pass
MAX_TABLE_SUM = 14  # table --max: (N - 2)(N - 1)/2 cells, one solve each
MAX_VERIFY_N = 2_000  # verify --max-n: n values of about 0.7n bits per column
MAX_SEARCH_P = 16  # search --max-p
MAX_SEARCH_K = 4  # search --max-k: the offset sets K grow like span^(k-1)
MAX_SEARCH_SPAN = 12  # search --max-span
MAX_SEARCH_L = 40  # search --l-window: residues of x^l kept in the lookup


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(json.dumps({"error": "usage", "detail": message}))
        raise SystemExit(2)


def _build_parser() -> _Parser:
    parser = _Parser(prog="mstep", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_seq = sub.add_parser("seq", help="print sequence terms")
    p_seq.add_argument("--name", required=True)
    p_seq.add_argument("--from", dest="start", type=int, default=0)
    p_seq.add_argument("--to", dest="stop", type=int, required=True)
    p_seq.add_argument("--format", choices=("text", "json"), default="text")
    p_seq.set_defaults(run=_cmd_seq)

    p_conv = sub.add_parser("conv", help="brute-force convolution values 0..n")
    p_conv.add_argument("--factors", required=True, help="comma-separated names")
    p_conv.add_argument("--n", type=int, required=True)
    p_conv.add_argument("--format", choices=("text", "json"), default="text")
    p_conv.set_defaults(run=_cmd_conv)

    p_verify = sub.add_parser("verify", help="verify catalog identities")
    group = p_verify.add_mutually_exclusive_group(required=True)
    group.add_argument("--id")
    group.add_argument("--all", action="store_true")
    p_verify.add_argument("--max-n", type=int, default=200)
    p_verify.add_argument("--symbolic", action="store_true")
    p_verify.add_argument("--manifest")
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.set_defaults(run=_cmd_verify)

    p_solve = sub.add_parser("solve", help="closed form by partial fractions")
    p_solve.add_argument("--factors", required=True)
    p_solve.add_argument("--format", choices=("text", "json", "latex"), default="json")
    p_solve.add_argument("--oracle-n", type=int, default=100)
    p_solve.set_defaults(run=_cmd_solve)

    p_table = sub.add_parser("table", help="solve the two-sequence grid")
    p_table.add_argument("--max", type=int, default=9, help="largest m+p")
    p_table.add_argument("--oracle-n", type=int, default=100)
    p_table.add_argument("--format", choices=("text", "json"), default="text")
    p_table.set_defaults(run=_cmd_table)

    p_search = sub.add_parser("search", help="search window-sum identities")
    p_search.add_argument("--m", type=int, required=True)
    p_search.add_argument("--max-p", type=int, default=14)
    p_search.add_argument("--max-k", type=int, default=3)
    p_search.add_argument("--max-span", type=int, default=6)
    p_search.add_argument("--l-window", type=int, default=None)
    p_search.add_argument("--format", choices=("text", "json"), default="text")
    p_search.set_defaults(run=_cmd_search)

    p_gf = sub.add_parser("gfcheck", help="canonical GF forms of one identity")
    p_gf.add_argument("--id", required=True)
    p_gf.add_argument("--manifest")
    p_gf.set_defaults(run=_cmd_gfcheck)
    return parser


def main(argv=None) -> int:
    return to_stdout(lambda: _dispatch(argv))


def to_stdout(run) -> int:
    """The exit status of ``run()``, which writes to stdout, or 141 with no
    traceback when stdout closes early."""
    try:
        code = run()
        sys.stdout.flush()  # a closed pipe raises here, not in the exit flush
        return code
    except BrokenPipeError:
        # stdout closed early: no traceback, and the exit flush goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


def _dispatch(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code
    try:
        return args.run(args)
    except BrokenPipeError:
        raise
    except (solver.SolverError, ValueError, KeyError, OSError) as exc:
        detail = str(exc) if not isinstance(exc, KeyError) else str(exc.args[0])
        print(json.dumps({"error": type(exc).__name__, "detail": detail}))
        return 2


def _at_most(value: int, cap: int, what: str) -> None:
    if value > cap:
        raise ValueError(f"{what} = {value} exceeds the cap {cap}")


def _at_least(value: int, floor: int, what: str) -> None:
    if value < floor:
        raise ValueError(f"{what} = {value} is below {floor}: the range is empty")


def _factors(args) -> list:
    factors = [f.strip() for f in args.factors.split(",") if f.strip()]
    _at_most(len(factors), MAX_FACTORS, "factor count")
    return factors


def _entry(args):
    """The entry of ``--manifest`` (the built-in catalog by default) whose
    id is ``--id``; KeyError when there is none."""
    index = catalog.catalog_index(catalog.load_manifest(args.manifest))
    if args.id not in index:
        raise KeyError(f"unknown identity id: {args.id}")
    return index[args.id]


def _cmd_seq(args) -> int:
    _at_most(args.stop, MAX_SEQ_INDEX, "--to")
    _at_least(args.stop, args.start, "--to")
    _at_most(args.stop - args.start + 1, MAX_SEQ_TERMS, "term count --to - --from + 1")
    h = sequences.handle(args.name)
    terms = [h.term(n) for n in range(args.start, args.stop + 1)]
    if args.format == "json":
        print(json.dumps({
            "name": sequences.resolve(args.name).name,
            "from": args.start,
            "to": args.stop,
            "terms": [str(t) for t in terms],
        }))
    else:
        print(" ".join(str(t) for t in terms))
    return 0


def _cmd_conv(args) -> int:
    _at_most(args.n, MAX_CONV_N, "--n")
    _at_least(args.n, 0, "--n")
    factors = _factors(args)
    values = oracle.conv_multi_prefix(factors, args.n)
    if args.format == "json":
        print(json.dumps({
            "factors": [sequences.resolve(f).name for f in factors],
            "values": [str(v) for v in values],
        }))
    else:
        print(" ".join(str(v) for v in values))
    return 0


def _cmd_verify(args) -> int:
    _at_most(args.max_n, MAX_VERIFY_N, "--max-n")
    idents = [_entry(args)] if args.id is not None else catalog.load_manifest(args.manifest)
    reports = catalog.verdicts(idents, args.max_n, symbolic=args.symbolic)
    bad = sum(not rep.passed for rep in reports)
    if args.format == "json":
        print(json.dumps([rep.to_json() for rep in reports]))
    else:
        for rep in reports:
            line = f"{'PASS' if rep.passed else 'FAIL'} {rep.id} ({rep.mode})"
            if rep.negative:
                line += (" [documented misprint, fails as recorded]" if rep.passed
                         else " [UNEXPECTED behaviour]")
            if not rep.passed:
                line += f" first_failure={rep.first_failure}"
            print(line)
        print(f"identities: {bad} failed" if bad else "identities: all pass")
    return 1 if bad else 0


def _cmd_solve(args) -> int:
    _at_most(args.oracle_n, MAX_ORACLE_N, "--oracle-n")
    factors = _factors(args)
    order = sum(sequences.resolve(f).order for f in factors)
    _at_most(order, sequences.MAX_DEN_DEGREE, "summed order of the factors")
    cf = solver.solve_conv_multi(factors)
    oracle_ok = cf.check_oracle(args.oracle_n)
    if args.format == "json":
        print(json.dumps(cf.to_json()))
    elif args.format == "latex":
        print(cf.latex())
    else:
        print(cf.text())
    return 0 if oracle_ok else 1


def _cmd_table(args) -> int:
    _at_most(args.oracle_n, MAX_ORACLE_N, "--oracle-n")
    _at_most(args.max, MAX_TABLE_SUM, "--max")
    cells = solver.table(args.max, oracle_n=args.oracle_n)
    bad = [c for c in cells if not (c["gf_equal"] and c["oracle_ok"])]
    if args.format == "json":
        print(json.dumps(cells))
    else:
        for c in cells:
            status = "ok" if c["gf_equal"] and c["oracle_ok"] else "FAIL"
            case = "" if c["case_equivalent"] is None else f" case-check={c['case_equivalent']}"
            print(f"(m={c['m']}, p={c['p']}) {c['label']:<14} {status}"
                  f" gf-verified oracle<=n{c['oracle_max_n']}{case}: {c['text']}")
        print(f"cells: {len(cells) - len(bad)}/{len(cells)} solved and verified")
    return 1 if bad else 0


def _cmd_search(args) -> int:
    _at_least(args.m, 2, "--m")
    for value, floor, cap, what in ((args.max_p, 1, MAX_SEARCH_P, "--max-p"),
                                    (args.max_k, 1, MAX_SEARCH_K, "--max-k"),
                                    (args.max_span, 0, MAX_SEARCH_SPAN, "--max-span"),
                                    (args.l_window or 0, 0, MAX_SEARCH_L, "--l-window")):
        _at_least(value, floor, what)
        _at_most(value, cap, what)
    sols = pattern_search.search(
        args.m, p_max=args.max_p, k_card_max=args.max_k,
        k_span_max=args.max_span, l_window=args.l_window)
    if args.format == "json":
        print(json.dumps([s.to_json() for s in sols]))
    else:
        for s in sols:
            print(json.dumps(s.to_json()))
    return 0


def _cmd_gfcheck(args) -> int:
    ident = _entry(args)
    left, right = catalog.identity_gfs(ident)
    print(f"lhs: {left}")
    print(f"rhs: {right}")
    if isinstance(left, ex.NotCompilable) or isinstance(right, ex.NotCompilable):
        print("verdict: not-compilable")
        return 1
    same = sa.agrees_from(left, right, ident.n0)
    print(f"verdict: {'equal' if same else 'different'}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
