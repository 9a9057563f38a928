"""Machine-checkable catalog of convolution identities.

An :class:`Identity` pairs two expression trees with the index n0 from
which the equality is claimed.  Entries come in two kinds:

* ``"seq"``  -- both sides are :mod:`mstep.expressions` trees, verified
  numerically term by term and, when both sides compile, symbolically via
  canonical rational-function equality (allowing a polynomial discrepancy
  below n0);
* ``"gf"``   -- both sides are generating-function trees verified by exact
  RatFun equality.

Entries carrying a ``negative`` block are documented misprints: the
verifier confirms that they fail exactly as recorded.

:func:`load_manifest` returns the catalog that :mod:`mstep.manifest_build`
builds in process, or reads one from a JSON file in the format it exports.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from . import expressions as ex
from .sequences import resolve
from .series_algebra import Poly, RatFun, agrees_from, combo_gf, gf_of


@dataclass(frozen=True)
class Identity:
    id: str
    kind: str  # "seq" | "gf"
    lhs: object
    rhs: object
    n0: int = 0
    params: dict = field(default_factory=dict)
    paper_quote: str = ""
    negative: dict | None = None


@dataclass
class VerifyReport:
    id: str
    mode: str  # "numeric" | "symbolic"
    passed: bool
    first_failure: dict | None = None

    def to_json(self) -> dict:
        out = {"id": self.id, "mode": self.mode, "pass": self.passed}
        if self.first_failure is not None:
            out["first_failure"] = self.first_failure
        return out


# -- kernel check -------------------------------------------------------------


def kernel_check(spec, combo: dict, corrections: dict | None = None, n0: int = 0) -> bool:
    """Decide whether sum_k combo[k] * seq_{n+k} + corrections(n) == 0 for all n >= n0.

    Decided by generating functions, with no numeric window: the GF of the
    shift combination (``combo_gf``) plus the corrections polynomial must be
    zero or a polynomial of degree < n0 (``agrees_from``).

    Library API with no caller in the package, kept because
    ``perfbench/tracer.py`` traces it by name until the benchmark refresh.
    """
    spec = resolve(spec) if isinstance(spec, str) else spec
    corrections = corrections or {}
    top = max(corrections, default=-1)
    fixed = RatFun(Poly([corrections.get(n, 0) for n in range(top + 1)]))
    return agrees_from(combo_gf(spec, combo) + fixed, 0, n0)


# -- verification --------------------------------------------------------------


def verify_numeric(identity: Identity, n_max: int) -> VerifyReport:
    """Exact check of lhs(n) == rhs(n) for n0 <= n <= n_max (a nonempty range)."""
    if identity.kind != "seq":
        raise ValueError(f"{identity.id} is not a sequence identity")
    if n_max < identity.n0:
        raise ValueError(
            f"{identity.id}: n_max {n_max} is below n0 {identity.n0}, nothing to check")
    lhs = ex.evaluate_range(identity.lhs, n_max + 1)
    rhs = ex.evaluate_range(identity.rhs, n_max + 1)
    for n in range(identity.n0, n_max + 1):
        if lhs[n] != rhs[n]:
            failure = {"n": n, "lhs": str(lhs[n]), "rhs": str(rhs[n])}
            return VerifyReport(identity.id, "numeric", False, failure)
    return VerifyReport(identity.id, "numeric", True)


def identity_gfs(identity: Identity) -> tuple:
    """Both sides as canonical RatFuns; a side outside the rational fragment
    comes back as an ``expressions.NotCompilable`` value."""
    if identity.kind == "gf":
        try:
            return compile_gf(identity.lhs), compile_gf(identity.rhs)
        except ValueError as exc:
            raise ValueError(f"{identity.id}: {exc}") from exc
    return ex.gf_of_expr(identity.lhs), ex.gf_of_expr(identity.rhs)


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


def verify(identity: Identity, n_max: int = 200, symbolic: bool = False) -> VerifyReport:
    """Proof or numeric check of one entry, ignoring any ``negative`` block.

    GF entries are always symbolic.  For sequence entries, ``symbolic=True``
    attempts the generating-function proof first and falls back to the
    numeric check when a side is not compilable.
    """
    if identity.kind == "gf":
        return verify_symbolic(identity)
    if symbolic:
        rep = verify_symbolic(identity)
        if rep is not None:
            return rep
    return verify_numeric(identity, n_max)


def verdict(identity: Identity, n_max: int = 200, symbolic: bool = False) -> tuple:
    """The catalog's decision for one entry, as (ok, report).

    A documented misprint is ok when it fails exactly as recorded
    (:func:`negative_as_documented`); any other entry is ok when
    :func:`verify` passes it.
    """
    if identity.negative:
        return negative_as_documented(identity, n_max)
    rep = verify(identity, n_max, symbolic)
    return rep.passed, rep


def negative_as_documented(identity: Identity, n_max: int = 200) -> tuple:
    """Check a documented-misprint entry: it must fail exactly as recorded.

    Returns (ok, report).
    """
    if not identity.negative:
        raise ValueError(f"{identity.id} is not a negative entry")
    rep = verify_numeric(identity, n_max)
    doc = identity.negative["first_fail"]
    ok = (
        not rep.passed
        and rep.first_failure is not None
        and rep.first_failure["n"] == doc["n"]
        and rep.first_failure["lhs"] == doc["lhs"]
        and rep.first_failure["rhs"] == doc["rhs"]
    )
    return ok, rep


# -- GF expression trees -----------------------------------------------------------


def compile_gf(tree) -> RatFun:
    """Compile a generating-function tree to a canonical RatFun.

    Grammar: ["seqgf", name], ["poly", [coeffs...]], ["add"|"mul", ...],
    ["sub"|"div", a, b], ["neg", a], ["subneg", a] (x -> -x).  A divisor
    that compiles to zero raises ValueError.
    """
    tag = tree[0]
    if tag == "seqgf":
        return gf_of(resolve(tree[1]))
    if tag == "poly":
        return RatFun(Poly([Fraction(c) for c in tree[1]]))
    if tag == "add":
        acc = compile_gf(tree[1])
        for sub in tree[2:]:
            acc = acc + compile_gf(sub)
        return acc
    if tag == "mul":
        acc = compile_gf(tree[1])
        for sub in tree[2:]:
            acc = acc * compile_gf(sub)
        return acc
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


# -- manifest IO ---------------------------------------------------------------------


def identity_to_json(ident: Identity) -> dict:
    entry = {
        "id": ident.id,
        "kind": ident.kind,
        "lhs": ident.lhs if ident.kind == "gf" else ex.expr_to_json(ident.lhs),
        "rhs": ident.rhs if ident.kind == "gf" else ex.expr_to_json(ident.rhs),
        "n0": ident.n0,
        "paper_quote": ident.paper_quote,
    }
    if ident.params:
        entry["params"] = ident.params
    if ident.negative:
        entry["negative"] = ident.negative
    return entry


# gf tree tag -> (fewest, most) operands; None means no upper limit.
_GF_ARITY = {"seqgf": (1, 1), "poly": (1, 1), "add": (1, None), "mul": (1, None),
             "sub": (2, 2), "div": (2, 2), "neg": (1, 1), "subneg": (1, 1)}


def _check_gf_tree(tree, depth: int = 1) -> None:
    """Raise unless every node has the operand count its tag needs, every
    ``seqgf`` names a known sequence, every ``poly`` holds a list of
    numbers and the tree is at most ``expressions.MAX_DEPTH`` deep."""
    if depth > ex.MAX_DEPTH:
        raise ValueError(f"gf tree deeper than the cap {ex.MAX_DEPTH}")
    if not isinstance(tree, list) or not tree or tree[0] not in _GF_ARITY:
        raise ValueError(f"not a gf tree: {tree!r}")
    low, high = _GF_ARITY[tree[0]]
    if not low <= len(tree) - 1 <= (high or len(tree)):
        raise ValueError(f"gf node {tree[0]!r} with {len(tree) - 1} operands")
    if tree[0] == "seqgf":
        resolve(tree[1])
    elif tree[0] == "poly":
        if not isinstance(tree[1], list):
            raise ValueError(f"poly operand is not a coefficient list: {tree[1]!r}")
        for c in tree[1]:
            Fraction(c)
    else:
        for sub in tree[1:]:
            _check_gf_tree(sub, depth + 1)


def _is_index(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def identity_from_json(entry: dict) -> Identity:
    kind = entry["kind"]
    if kind == "gf":
        lhs, rhs = entry["lhs"], entry["rhs"]
        _check_gf_tree(lhs)
        _check_gf_tree(rhs)
    elif kind == "seq":
        lhs, rhs = ex.expr_from_json(entry["lhs"]), ex.expr_from_json(entry["rhs"])
    else:
        raise ValueError(f"unknown identity kind {kind!r}")
    id_, n0, negative = entry["id"], entry.get("n0", 0), entry.get("negative")
    if not isinstance(id_, str):
        raise ValueError(f"id is not a string: {id_!r}")
    if not _is_index(n0):
        raise ValueError(f"n0 is not an int >= 0: {n0!r}")
    if negative is not None:
        fail = negative["first_fail"]
        if not (_is_index(fail["n"]) and isinstance(fail["lhs"], str)
                and isinstance(fail["rhs"], str)):
            raise ValueError(f"first_fail needs an int n >= 0 and str lhs, rhs: {fail!r}")
    return Identity(
        id=id_,
        kind=kind,
        lhs=lhs,
        rhs=rhs,
        n0=n0,
        params=entry.get("params", {}),
        paper_quote=entry.get("paper_quote", ""),
        negative=negative,
    )


def load_manifest(path=None) -> list:
    """The identity catalog: built in process by default, else read from
    the JSON file at ``path``.

    A file is validated whole before anything is verified: a malformed
    document or entry raises ValueError naming the entry, as do numbers
    such as "1/0" or 1e400 and trees above ``expressions.MAX_DEPTH`` or too
    deep to parse.  Either way, a repeated id raises ValueError.
    """
    if path is None:
        from .manifest_build import build_identities  # that module imports this one

        idents = build_identities()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except RecursionError as exc:
                raise ValueError("manifest JSON is nested too deeply to parse") from exc
        entries = doc.get("identities") if isinstance(doc, dict) else None
        if not isinstance(entries, list):
            raise ValueError("manifest must be a JSON object with an 'identities' list")
        idents = []
        for k, entry in enumerate(entries):
            try:
                idents.append(identity_from_json(entry))
            except (ArithmeticError, IndexError, KeyError, TypeError, ValueError) as exc:
                name = entry.get("id") if isinstance(entry, dict) else None
                raise ValueError(f"manifest entry {k} ({name}) is malformed: {exc!r}") from exc
    ids = [i.id for i in idents]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise ValueError(f"duplicate identity ids in manifest: {dupes}")
    return idents


def catalog_index(idents) -> dict:
    return {i.id: i for i in idents}
