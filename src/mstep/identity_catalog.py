"""Machine-checkable catalog of convolution identities, and the manifest
format that carries it.

An :class:`Identity` pairs two expression trees with the index n0 from
which the equality is claimed.  Entries come in two kinds:

* ``"seq"``  -- both sides are :mod:`mstep.expressions` trees, verified
  numerically term by term and, when both sides compile, symbolically via
  rational-function equality by cross-multiplication (allowing a
  polynomial discrepancy below n0, ``series_algebra.agrees_from``);
* ``"gf"``   -- both sides are generating-function trees verified by exact
  RatFun equality; n0 is always 0.

Entries carrying a ``negative`` block are documented misprints: the
verifier confirms that they fail exactly as recorded.

This module owns the manifest format, for writing and reading alike: the
document ``{"version": 1, "identities": [...]}`` (:func:`manifest_document`),
its entries (:func:`identity_to_json`), seq trees (:func:`expr_to_json`, one
JSON list per ``expressions`` node), gf trees (:func:`compile_gf`), the
number rule (:func:`number_from_json`: a string such as "3/4", a JSON int,
or a JSON decimal read exactly; never exponent form) and the caps
MAX_SHIFT, MAX_DEPTH, MAX_NPOLY_DEGREE and the one degree budget
``sequences.MAX_DEN_DEGREE``, on ``den_degree`` and ``gf_degree``.
:func:`load_manifest` returns the catalog that :mod:`mstep.manifest_build`
builds in process, or checks a JSON file whole and reads it.
"""

from __future__ import annotations

import json
import math
from collections import Counter, namedtuple
from contextlib import closing

from . import expressions as ex  # read by attribute, so the lazy module runs late: a lower peak
from .sequences import MAX_DEN_DEGREE, resolve
from .series_algebra import RatFun, _coeff, agrees_from, gf_of


class Identity(namedtuple("Identity", "id kind lhs rhs n0 params paper_quote negative")):
    """One catalog entry; kind is "seq" or "gf".  Each entry built without
    ``params`` gets its own empty dict."""

    __slots__ = ()

    def __new__(cls, id, kind, lhs, rhs, n0=0, params=None, paper_quote="", negative=None):
        params = {} if params is None else params
        return super().__new__(cls, id, kind, lhs, rhs, n0, params, paper_quote, negative)


class VerifyReport(namedtuple("VerifyReport", "id mode passed first_failure negative",
                               defaults=(None, False))):
    """mode is "numeric" or "symbolic"; first_failure is the run's first
    disagreement, or None.  passed is the catalog's decision: for a
    documented misprint (negative) it means "fails exactly as recorded"."""

    __slots__ = ()

    def to_json(self) -> dict:
        out = {"id": self.id, "mode": self.mode, "pass": self.passed}
        if self.first_failure is not None:
            out["first_failure"] = self.first_failure
        if self.negative:
            out["negative"] = True
        return out


# -- kernel check -------------------------------------------------------------


def kernel_check(spec, combo: dict, corrections: dict | None = None, n0: int = 0) -> bool:
    """Decide whether sum_k combo[k] * seq_{n+k} + corrections(n) == 0 for all n >= n0.

    Decided by generating functions, with no numeric window: the shift
    combination as one ``expressions`` sum (``gf_of_expr``) plus the
    corrections polynomial must be zero or a polynomial of degree < n0.

    Library API with no caller in the package, kept because
    ``perfbench/tracer.py`` traces it by name until the benchmark refresh.
    """
    corrections = corrections or {}
    top = max(corrections, default=-1)
    total = RatFun([corrections.get(n, 0) for n in range(top + 1)])
    terms = [ex.scale(c, ex.term(spec, s)) for s, c in combo.items()]
    if terms:
        total = total + ex.gf_of_expr(ex.add(*terms))
    return agrees_from(total, 0, n0)


# -- verification --------------------------------------------------------------


def verify_numeric(identity: Identity, n_max: int) -> VerifyReport:
    """Exact check of lhs(n) == rhs(n) for n0 <= n <= n_max (a nonempty range)."""
    if identity.kind != "seq":
        raise ValueError(f"{identity.id} is not a sequence identity")
    if n_max < identity.n0:
        raise _nothing_to_check(identity, n_max)
    lhs = ex.evaluate_range(identity.lhs, n_max + 1)
    rhs = ex.evaluate_range(identity.rhs, n_max + 1)
    for n in range(identity.n0, n_max + 1):
        if lhs[n] != rhs[n]:
            failure = {"n": n, "lhs": str(lhs[n]), "rhs": str(rhs[n])}
            return VerifyReport(identity.id, "numeric", False, failure)
    return VerifyReport(identity.id, "numeric", True)


def _nothing_to_check(identity: Identity, n_max: int) -> ValueError:
    return ValueError(f"{identity.id}: n_max {n_max} is below n0 {identity.n0}, nothing to check")


def identity_gfs(identity: Identity) -> tuple:
    """Both sides as RatFuns, stored as built and so not always in lowest
    terms (``str`` prints ``RatFun.lowest()``); for a side outside the
    rational fragment, the ``expressions.NotCompilable`` that ``gf_of_expr``
    raised."""
    if identity.kind == "gf":
        try:
            return compile_gf(identity.lhs), compile_gf(identity.rhs)
        except ValueError as exc:
            raise ValueError(f"{identity.id}: {exc}") from exc
    return _gf_or_failure(identity.lhs), _gf_or_failure(identity.rhs)


def _gf_or_failure(expr):
    try:
        return ex.gf_of_expr(expr)
    except ex.NotCompilable as exc:
        return exc


def verify_symbolic(identity: Identity) -> VerifyReport | None:
    """Generating-function proof; None when a side does not compile.

    The two sides must agree as power series from n0 on, i.e. differ by a
    polynomial of degree < n0 (every GF entry has n0 = 0: exact equality).
    """
    left, right = identity_gfs(identity)
    if isinstance(left, ex.NotCompilable) or isinstance(right, ex.NotCompilable):
        return None
    if agrees_from(left, right, identity.n0):
        return VerifyReport(identity.id, "symbolic", True)
    return VerifyReport(
        identity.id, "symbolic", False, {"lhs": str(left), "rhs": str(right)}
    )


def verdict(identity: Identity, n_max: int = 200, symbolic: bool = False) -> VerifyReport:
    """The report of one entry; its ``passed`` is the catalog's decision.

    A misprint's report is its numeric run, passed when it fails exactly as
    recorded (:func:`negative_as_documented`).  GF entries are always proved
    symbolically; for sequence entries, ``symbolic=True`` attempts the
    generating-function proof first and falls back to the numeric check
    when a side is not compilable.  An n_max below 0 is an empty range for
    every entry: ValueError before any proof.
    """
    if n_max < 0:
        raise _nothing_to_check(identity, n_max)
    if identity.negative:
        ok, rep = negative_as_documented(identity, n_max)
        return rep._replace(passed=ok, negative=True)
    rep = verify_symbolic(identity) if identity.kind == "gf" or symbolic else None
    if rep is None:
        rep = verify_numeric(identity, n_max)
    return rep


def verdicts(idents, n_max: int = 200, symbolic: bool = False) -> list:
    """The :func:`verdict` report of each entry, in id order.

    The seq sides' convolution tables live in ``expressions.planned``: each
    kernel tuple is built once, at the longest length any entry reads, and
    dropped after the last entry that reads it, or when an entry raises.
    """
    idents = sorted(idents, key=lambda i: i.id)
    sides = [(i.lhs, i.rhs) if i.kind == "seq" else () for i in idents]
    with closing(ex.planned(sides, n_max + 1)) as order:
        return [verdict(idents[k], n_max, symbolic) for k in order]


def negative_as_documented(identity: Identity, n_max: int = 200) -> tuple:
    """Check a documented-misprint entry: it must fail exactly as recorded.

    Returns (ok, report); like one below n0, an n_max below the recorded n
    raises ValueError."""
    if not identity.negative:
        raise ValueError(f"{identity.id} is not a negative entry")
    doc = identity.negative["first_fail"]
    if identity.n0 <= n_max < doc["n"]:
        raise ValueError(f"{identity.id}: n_max {n_max} is below first_fail n {doc['n']}")
    rep = verify_numeric(identity, n_max)
    ok = not rep.passed and all(rep.first_failure[k] == doc[k] for k in ("n", "lhs", "rhs"))
    return ok, rep


# -- GF expression trees -----------------------------------------------------------


def compile_gf(tree) -> RatFun:
    """Compile a generating-function tree to a RatFun by RatFun's gcd-free
    arithmetic, so its degrees are at most ``gf_degree``'s bound.

    Grammar: ["seqgf", name], ["poly", [coeffs...]], ["add"|"mul", ...],
    ["sub"|"div", a, b], ["neg", a], ["subneg", a] (x -> -x).  ``poly``
    coefficients are numbers (``_gf_from_json`` parses a file's strings
    once).  A divisor that compiles to zero raises ValueError.
    """
    tag = tree[0]
    if tag == "seqgf":
        return gf_of(resolve(tree[1]))
    if tag == "poly":
        return RatFun(tree[1])
    if tag == "add":
        return sum(map(compile_gf, tree[2:]), compile_gf(tree[1]))
    if tag == "mul":
        return math.prod(map(compile_gf, tree[2:]), start=compile_gf(tree[1]))
    if tag == "sub":
        return compile_gf(tree[1]) - compile_gf(tree[2])
    if tag == "div":
        num, den = compile_gf(tree[1]), compile_gf(tree[2])
        if den.is_zero():
            raise ValueError(f"gf divisor {tree[2]!r} is zero")
        return num / den
    if tag == "neg":
        return -compile_gf(tree[1])
    if tag == "subneg":
        return compile_gf(tree[1]).substitute_neg()
    raise ValueError(f"unknown gf tree tag: {tag!r}")


# -- the manifest format ---------------------------------------------------------------


# Largest |shift| or |offset| expr_from_json accepts (the built-in catalog
# uses at most 13).  A column of seq_{n+s} for n < N reads N + s terms of up
# to about 0.7(N + s) bits, so memory grows like (N + s)^2.  At the cap, a
# manifest of term, geo2, alt and conv entries takes 0.18 s and 19.8 MB
# under `verify --all --max-n 2000` (18.2 MB at shift 0), 2-vCPU VM.
MAX_SHIFT = 1_000

# Largest summed npoly degree (len(coeffs) - 1 over every npoly node) of one
# --manifest side, the catalog's own (pell_FFF_npoly: 1 + 1 + 2 + 2).  Each
# degree raises a GF denominator's power by one, through nested products and
# conv kernels alike.  A sum, it bounds the npoly work den_degree does not
# (npoly of degree 499 times F1: 7.8 s uncapped); at the cap npoly times F71
# takes under 0.2 s, cold `verify --all --max-n 2000 [--symbolic]`, 2-vCPU VM.
MAX_NPOLY_DEGREE = 6

# Deepest --manifest tree, a leaf being depth 1 (the catalog's deepest is 6).
# Evaluation and compilation recurse per level: a `sum` chain 500 deep
# exhausts Python's recursion limit, 64 stays far below it.
MAX_DEPTH = 64


def npoly_degree(expr: ex.SeqExpr) -> int:
    """The summed len(coeffs) - 1 over the NPoly nodes of a tree."""
    if isinstance(expr, ex.NPoly):
        return max(len(expr.coeffs) - 1, 0)
    return sum(npoly_degree(c) for c in expr if isinstance(c, tuple))  # nodes are tuples


def den_degree(expr: ex.SeqExpr) -> int:
    """An upper bound on the degree of ``gf_of_expr(expr).den``."""
    return sum(degree * m for (_, degree, _), m in _den_factors(expr).items())


_ONES_FACTOR = ("1-x", 1, 1)  # a denominator factor: (label, degree, 1 for x or -1 for -x)


def _den_factors(expr: ex.SeqExpr) -> Counter:
    """Factor -> multiplicity in a multiple of ``gf_of_expr(expr).den``.
    Factors with distinct labels count as coprime, so a sum or a product
    takes each factor's largest multiplicity over its children, a conv adds
    its kernels' (and one 1 - x for a lone kernel), Alt maps x to -x and the
    NPoly factors of a product add their degree to every factor."""
    if isinstance(expr, ex.Term):
        spec = resolve(expr.seq)
        return Counter({(spec.name, spec.order, 1): 1})
    if isinstance(expr, ex.Geo2):
        return Counter({("1-2x", 1, 1): 1})
    if isinstance(expr, ex.Scale):
        return _den_factors(expr.child)
    out = Counter()
    if isinstance(expr, ex.ConvAtom):
        for kern in expr.kernels:
            out += _den_factors(kern)
        return out + Counter({_ONES_FACTOR: 1}) if len(expr.kernels) == 1 else out
    if isinstance(expr, ex.Sum):
        for t in expr.terms:
            out |= _den_factors(t)
        return out
    factors = expr.factors if isinstance(expr, ex.Product) else (expr,)
    for f in factors:
        if not isinstance(f, ex._SCALARS):
            out |= _den_factors(f)
    sign = (-1) ** sum(isinstance(f, ex.Alt) for f in factors)
    rise = sum(npoly_degree(f) for f in factors if isinstance(f, ex.NPoly))
    return Counter({(label, degree, s * sign): m + rise
                    for (label, degree, s), m in (out or {_ONES_FACTOR: 1}).items()})


class _Decimal(float):
    """A JSON number with a fraction or an exponent part: the float json
    would read, so a field that wants an int or a str refuses it, with its
    ``text`` kept for :func:`number_from_json`."""

    def __new__(cls, text: str):
        self = super().__new__(cls, text)
        self.text = text
        return self


def number_from_json(value):
    """A manifest number (a JSON int or decimal, or a string such as "3/4")
    as an int or a Fraction.  A decimal is read from its text, so 0.1 is
    exactly 1/10.  Exponent form such as 1E3 or "1e5000" is refused:
    ``Fraction`` expands it in full, past Python's limit on int/str
    conversion, so one short string could build an integer of any size.
    A JSON true or false is refused too, not read as 1 or 0."""
    if isinstance(value, bool):
        raise ValueError(f"number is a JSON boolean: {value!r}")
    if isinstance(value, _Decimal):
        value = value.text
    if isinstance(value, str) and ("e" in value or "E" in value):
        raise ValueError(f"number in exponent form: {value!r}")
    return _coeff(value)


def _json_int(value, what: str, cap: int | None = None) -> int:
    """A JSON int, not a bool or a decimal: |value| <= cap with a cap, else
    value >= 0."""
    if not isinstance(value, int) or isinstance(value, bool) or (cap is None and value < 0):
        raise ValueError(f"{what} is not an int{' >= 0' if cap is None else ''}: {value!r}")
    if cap is not None and abs(value) > cap:
        raise ValueError(f"{what} {value} exceeds the cap {cap}")
    return value


def node_tag(node, depth: int, arity: dict, kind: str) -> str:
    """The tag of a JSON tree node at ``depth`` (a root is 1), once the
    depth is within MAX_DEPTH and ``arity`` (tag -> (fewest, most)
    operands, None for no limit) admits the tag and its operand count."""
    if depth > MAX_DEPTH:
        tree = "expression" if kind == "seq" else kind
        raise ValueError(f"{tree} tree deeper than the cap {MAX_DEPTH}")
    if not isinstance(node, list) or not node or node[0] not in arity:
        raise ValueError(f"not a {kind} tree: {node!r}")
    low, high = arity[node[0]]
    if not low <= len(node) - 1 <= (high or len(node)):
        raise ValueError(f"{kind} node {node[0]!r} with {len(node) - 1} operands")
    return node[0]


def expr_to_json(expr: ex.SeqExpr):
    if isinstance(expr, ex.Term):
        if not isinstance(expr.seq, str):
            raise TypeError(f"only a named sequence has a JSON form: {expr.seq!r}")
        return ["term", expr.seq, expr.shift]
    if isinstance(expr, ex.NPoly):
        return ["npoly", [str(c) for c in expr.coeffs]]
    if isinstance(expr, ex.Alt):
        return ["alt", expr.offset]
    if isinstance(expr, ex.Geo2):
        return ["geo2", expr.offset]
    if isinstance(expr, ex.Const):
        return ["const", str(expr.value)]
    if isinstance(expr, ex.Sum):
        return ["sum"] + [expr_to_json(t) for t in expr.terms]
    if isinstance(expr, ex.Product):
        return ["product"] + [expr_to_json(f) for f in expr.factors]
    if isinstance(expr, ex.Scale):
        return ["scale", str(expr.factor), expr_to_json(expr.child)]
    if isinstance(expr, ex.ConvAtom):
        return ["conv", [expr_to_json(k) for k in expr.kernels], expr.offset]
    raise TypeError(f"not a SeqExpr: {expr!r}")


_SEQ_ARITY = {"term": (2, 2), "npoly": (1, 1), "alt": (1, 1), "geo2": (1, 1), "const": (1, 1),
              "scale": (2, 2), "conv": (2, 2), "sum": (1, None), "product": (1, None)}


def expr_from_json(node, depth: int = 1) -> ex.SeqExpr:
    tag = node_tag(node, depth, _SEQ_ARITY, "seq")
    if tag == "term":
        resolve(node[1])  # an unknown name fails at load, not at evaluation
        return ex.Term(node[1], _json_int(node[2], "shift or offset", MAX_SHIFT))
    if tag == "npoly":
        if not isinstance(node[1], list):
            raise ValueError(f"npoly operand is not a coefficient list: {node[1]!r}")
        return ex.NPoly(tuple(number_from_json(c) for c in node[1]))
    if tag in ("alt", "geo2"):
        offset = _json_int(node[1], "shift or offset", MAX_SHIFT)
        return ex.Alt(offset) if tag == "alt" else ex.Geo2(offset)
    if tag == "const":
        return ex.Const(number_from_json(node[1]))
    if tag in ("sum", "product"):
        parts = tuple(expr_from_json(t, depth + 1) for t in node[1:])
        return ex.Sum(parts) if tag == "sum" else ex.Product(parts)
    if tag == "scale":
        return ex.Scale(number_from_json(node[1]), expr_from_json(node[2], depth + 1))
    kernels = (expr_from_json(k, depth + 1) for k in node[1])
    return ex.conv(*kernels, offset=_json_int(node[2], "shift or offset", MAX_SHIFT))


_GF_ARITY = {"seqgf": (1, 1), "poly": (1, 1), "add": (1, None), "mul": (1, None),
             "sub": (2, 2), "div": (2, 2), "neg": (1, 1), "subneg": (1, 1)}


def gf_degree(tree) -> int:
    """The summed degree of a gf tree's leaves, ``len - 1`` for a ``poly``
    and the order for a ``seqgf``: it bounds both degrees of compile_gf's
    result, as every node's result has degrees at most its operands' sum."""
    if tree[0] == "poly":
        return max(len(tree[1]) - 1, 0)
    if tree[0] == "seqgf":
        return resolve(tree[1]).order
    return sum(map(gf_degree, tree[1:]))


def _gf_to_json(tree) -> list:
    """A gf tree in its JSON form: ``poly`` coefficients as strings."""
    if tree[0] == "poly":
        return ["poly", [str(c) for c in tree[1]]]
    return [tree[0], *(t if isinstance(t, str) else _gf_to_json(t) for t in tree[1:])]


def _gf_from_json(tree, depth: int = 1) -> list:
    """The gf tree of a JSON one, with its ``poly`` coefficients parsed;
    raises unless every node has the operand count its tag needs, every
    ``seqgf`` names a known sequence, every ``poly`` holds a list of
    numbers and the tree is at most MAX_DEPTH deep."""
    tag = node_tag(tree, depth, _GF_ARITY, "gf")
    if tag == "seqgf":
        resolve(tree[1])
        return tree
    if tag == "poly":
        if not isinstance(tree[1], list):
            raise ValueError(f"poly operand is not a coefficient list: {tree[1]!r}")
        return ["poly", [number_from_json(c) for c in tree[1]]]
    return [tag, *(_gf_from_json(sub, depth + 1) for sub in tree[1:])]


def identity_to_json(ident: Identity) -> dict:
    entry = {
        "id": ident.id,
        "kind": ident.kind,
        "lhs": _gf_to_json(ident.lhs) if ident.kind == "gf" else expr_to_json(ident.lhs),
        "rhs": _gf_to_json(ident.rhs) if ident.kind == "gf" else expr_to_json(ident.rhs),
        "n0": ident.n0,
        "paper_quote": ident.paper_quote,
    }
    if ident.params:
        entry["params"] = ident.params
    if ident.negative:
        entry["negative"] = ident.negative
    return entry


def identity_from_json(entry: dict) -> Identity:
    kind = entry["kind"]
    if kind == "gf":
        lhs, rhs = _gf_from_json(entry["lhs"]), _gf_from_json(entry["rhs"])
        caps = (("GF degree bound", gf_degree, MAX_DEN_DEGREE),)
    elif kind == "seq":
        lhs, rhs = expr_from_json(entry["lhs"]), expr_from_json(entry["rhs"])
        caps = (("npoly degree", npoly_degree, MAX_NPOLY_DEGREE),
                ("GF denominator degree bound", den_degree, MAX_DEN_DEGREE))
    else:
        raise ValueError(f"unknown identity kind {kind!r}")
    for what, measure, cap in caps:
        degree = max(measure(lhs), measure(rhs))
        if degree > cap:
            raise ValueError(f"{what} {degree} of a side exceeds the cap {cap}")
    id_, negative = entry["id"], entry.get("negative")
    if not isinstance(id_, str):
        raise ValueError(f"id is not a string: {id_!r}")
    n0 = _json_int(entry.get("n0", 0), "n0")
    if kind == "gf" and (n0 != 0 or negative is not None):
        raise ValueError("a gf entry equates power series, so it has n0 = 0 and no negative block")
    if negative is not None:
        fail = negative["first_fail"]
        if not (isinstance(fail["lhs"], str) and isinstance(fail["rhs"], str)):
            raise ValueError(f"first_fail needs an int n >= 0 and str lhs, rhs: {fail!r}")
        if _json_int(fail["n"], "first_fail n") < n0:
            raise ValueError(f"first_fail n {fail['n']} is below n0 {n0}, so no check reaches it")
    return Identity(id_, kind, lhs, rhs, n0, entry.get("params", {}),
                    entry.get("paper_quote", ""), negative)


def manifest_document(idents) -> dict:
    return {"version": 1, "identities": [identity_to_json(i) for i in idents]}


def load_manifest(path=None) -> list:
    """The identity catalog: built in process by default, else read from
    the JSON file at ``path``.

    A file is validated whole before anything is verified: a malformed
    document or entry raises ValueError naming the entry, as do numbers
    such as "1/0", 1E3 or "1e5000", a gf entry with n0 != 0 or a
    ``negative`` block, a tree too deep to parse, a side above a cap and an
    empty ``identities`` list.  Either way, a repeated id raises ValueError.
    """
    if path is None:
        from .manifest_build import build_identities  # that module imports this one

        idents = build_identities()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh, parse_float=_Decimal)
            except RecursionError as exc:
                raise ValueError("manifest JSON is nested too deeply to parse") from exc
        entries = doc.get("identities") if isinstance(doc, dict) else None
        if not isinstance(entries, list):
            raise ValueError("manifest must be a JSON object with an 'identities' list")
        if not entries:
            raise ValueError("manifest has no identities, so nothing would be checked")
        idents = []
        for k, entry in enumerate(entries):
            try:
                idents.append(identity_from_json(entry))
            except (ArithmeticError, IndexError, KeyError, TypeError, ValueError) as exc:
                name = entry.get("id") if isinstance(entry, dict) else None
                raise ValueError(f"manifest entry {k} ({name}) is malformed: {exc!r}") from exc
    dupes = sorted(id_ for id_, k in Counter(i.id for i in idents).items() if k > 1)
    if dupes:
        raise ValueError(f"duplicate identity ids in manifest: {dupes}")
    return idents


def catalog_index(idents) -> dict:
    return {i.id: i for i in idents}
