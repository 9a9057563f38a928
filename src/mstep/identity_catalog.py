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

The catalog itself is a JSON data file (see :func:`load_manifest` and
:mod:`mstep.manifest_build` which generates it).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources

from . import expressions as ex
from .sequences import handle, resolve
from .series_algebra import Poly, RatFun, gf_of


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

    A finite combination of shifts of an order-m recurrence obeys the same
    recurrence once every involved index is past the seed window, so the sum
    vanishes identically beyond a point iff it vanishes at m consecutive
    indices there.  The window below that point is checked directly.
    """
    spec = resolve(spec) if isinstance(spec, str) else spec
    corrections = corrections or {}
    combo = {s: Fraction(c) for s, c in combo.items() if c != 0}
    if not combo:
        return all(c == 0 for n, c in corrections.items() if n >= n0)
    h = handle(spec)
    min_shift = min(combo)
    transient = gf_of(spec).num.degree - min_shift + 1
    start = max(n0, transient)
    if corrections:
        start = max(start, max(corrections) + 1)
    for n in range(n0, start + spec.order):
        acc = Fraction(corrections.get(n, 0))
        for s, c in combo.items():
            acc += c * h.term(n + s)
        if acc != 0:
            return False
    return True


def combo_eventually_null(spec, combo: dict) -> bool:
    """True iff the shift combination vanishes from some index on."""
    spec = resolve(spec) if isinstance(spec, str) else spec
    combo = {s: Fraction(c) for s, c in combo.items() if c != 0}
    if not combo:
        return True
    transient = gf_of(spec).num.degree - min(combo) + 1
    return kernel_check(spec, combo, None, max(transient, 0))


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


def verify_symbolic(identity: Identity) -> VerifyReport | None:
    """Generating-function proof; None when a side does not compile.

    For a sequence identity valid from n0 on, the two sides must agree as
    rational functions up to a polynomial of degree < n0.
    """
    if identity.kind == "gf":
        left = compile_gf(identity.lhs)
        right = compile_gf(identity.rhs)
        if left == right:
            return VerifyReport(identity.id, "symbolic", True)
        return VerifyReport(
            identity.id, "symbolic", False,
            {"lhs": str(left), "rhs": str(right)},
        )
    left = ex.gf_of_expr(identity.lhs)
    right = ex.gf_of_expr(identity.rhs)
    if isinstance(left, ex.NotCompilable) or isinstance(right, ex.NotCompilable):
        return None
    diff = left - right
    ok = diff.is_zero() or (diff.is_polynomial() and diff.num.degree < identity.n0)
    if ok:
        return VerifyReport(identity.id, "symbolic", True)
    return VerifyReport(
        identity.id, "symbolic", False, {"lhs": str(left), "rhs": str(right)}
    )


def verify(identity: Identity, n_max: int = 200, symbolic: bool = False) -> VerifyReport:
    """Single-entry verification as used by the CLI.

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
    ["sub"|"div", a, b], ["neg", a], ["subneg", a] (x -> -x).
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
        return compile_gf(tree[1]) / compile_gf(tree[2])
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


def identity_from_json(entry: dict) -> Identity:
    kind = entry["kind"]
    lhs = entry["lhs"] if kind == "gf" else ex.expr_from_json(entry["lhs"])
    rhs = entry["rhs"] if kind == "gf" else ex.expr_from_json(entry["rhs"])
    return Identity(
        id=entry["id"],
        kind=kind,
        lhs=lhs,
        rhs=rhs,
        n0=entry.get("n0", 0),
        params=entry.get("params", {}),
        paper_quote=entry.get("paper_quote", ""),
        negative=entry.get("negative"),
    )


def load_manifest(path=None) -> list:
    """Load the identity catalog (packaged data file by default)."""
    if path is None:
        text = resources.files("mstep").joinpath("data/manifest.json").read_text()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    doc = json.loads(text)
    idents = [identity_from_json(entry) for entry in doc["identities"]]
    ids = [i.id for i in idents]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate identity ids in manifest")
    return idents


def catalog_index(idents) -> dict:
    return {i.id: i for i in idents}
