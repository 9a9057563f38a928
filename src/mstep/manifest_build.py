"""The identity catalog, built in process.

Every displayed identity of the paper is encoded here as an expression
tree; :func:`build_identities` is the one source of the default catalog
that :func:`mstep.identity_catalog.load_manifest` returns.

A parametrised family is one function of its parameters, instantiated by
the one rule :func:`_family` over its parameter range.  The rule also
writes each entry's id and ``params``: the id is the family name followed
by ``_<key><value>`` for every parameter in order, so the two cannot
disagree.  Entries stay hand-written where the rule does not describe
them: one-off identities; the two documented misprints, which carry a
``negative`` block recording exactly how they fail (the partial-sum and
2^j-vs-TQ families carry the corrected index forms that do verify, and
anchors in ``paper_quote`` give the original formula snippets); and the
``reduce_even``/``reduce_odd`` pair, whose ids name ``l`` before ``m``
while ``params`` lists ``m`` first, and whose entries interleave.

``python -m mstep.manifest_build > catalog.json`` exports the catalog as
JSON, the format that ``mstep verify --manifest`` and ``gfcheck
--manifest`` read.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

from .expressions import add, alt, conv, const, geo2, mul, npoly, scale, sub, term
from .identity_catalog import Identity, manifest_document
from .sequences import mstep_name as ms

J = "jacobsthal"
PELL = "pell"


def fm(m, shift=0):
    """F^(m)_{n+shift}, the m-step sequence as an expression leaf."""
    return term(ms(m), shift)


def _seq(id_, lhs, rhs, n0=0, quote="", params=None, negative=None) -> Identity:
    return Identity(id_, "seq", lhs, rhs, n0, params or {}, quote, negative)


def _gf(id_, lhs, rhs, quote="") -> Identity:
    return Identity(id_, "gf", lhs, rhs, 0, {}, quote)


def _family(out, kind, name, grid, quote, build) -> None:
    """Append one ``kind`` entry per parameter dict of ``grid``.

    ``grid`` maps each parameter to its values, outermost first; a value
    range may be a function of the parameters before it.  ``build(**params)``
    returns (lhs, rhs) or (lhs, rhs, n0), and the id is ``name`` followed by
    ``_<key><value>`` for each parameter.
    """
    dicts = [{}]
    for key, values in grid.items():
        dicts = [{**d, key: v} for d in dicts
                 for v in (values(**d) if callable(values) else values)]
    for params in dicts:
        id_ = name + "".join(f"_{key}{value}" for key, value in params.items())
        out.append(Identity(id_, kind, *build(**params), params=params, paper_quote=quote))


# -- GF tree builders ---------------------------------------------------------

def gseq(name):
    return ["seqgf", name]


def gfm(m):
    """F^(m)(x), the GF of the m-step sequence."""
    return gseq(ms(m))


def gpoly(*coeffs):
    return ["poly", list(coeffs)]  # ints or Fractions; identity_to_json writes strings


def gx(k):
    return gpoly(*([0] * k + [1]))


def gone_minus_xp(p):
    return gpoly(*([1] + [0] * (p - 1) + [-1]))


def gadd(*ts):
    return ["add", *ts]


def gsub(a, b):
    return ["sub", a, b]


def gmul(*ts):
    return ["mul", *ts]


def gdiv(a, b):
    return ["div", a, b]


def gneg(a):
    return ["neg", a]


def gsubneg(a):
    return ["subneg", a]


def _window(p, start):
    """x^start + x^(start+1) + ... + x^(start+p-1) as a gf tree."""
    coeffs = [0] * start + [1] * p
    return gpoly(*coeffs)


# -- sequence-level entries ------------------------------------------------------


def _intro_entries(out):
    out.append(_seq("conv_JF", conv(term(J), term("F")),
                    sub(term(J, 1), term("F", 1)),
                    quote="J_{n+1} - F_{n+1}"))
    out.append(_seq("conv_TF", conv(term("T"), term("F")),
                    sub(term("T", 2), term("F", 2)),
                    quote="T_{n+2} - F_{n+2}"))
    out.append(_seq("conv_PellF", conv(term(PELL), term("F")),
                    sub(term(PELL), term("F")),
                    quote="\\mathcal{P}_{n} - F_{n}"))


def _two_sequence_entries(out):
    _family(out, "seq", "adjacent", {"m": range(1, 9)}, "F_n^{(m+1)} - F_n^{(m)}",
            lambda m: (conv(fm(m), fm(m + 1), offset=-m),
                       sub(fm(m + 1), fm(m)), m))
    out.append(_seq("conv_FT", conv(term("F"), term("T")),
                    sub(term("T", 2), term("F", 2)), quote="T_{n+2} - F_{n+2}"))
    out.append(_seq("conv_TQ", conv(term("T"), term("Q")),
                    sub(term("Q", 3), term("T", 3)), quote="Q_{n+3} - T_{n+3}"))
    out.append(_seq("conv_QP", conv(term("Q"), term("P")),
                    sub(term("P", 4), term("Q", 4)), quote="P_{n+4} - Q_{n+4}"))
    _family(out, "seq", "pgap", {"m": range(1, 9), "p": lambda m: range(2, 10 - m)},
            "\\sum_{k=0}^{p-1} \\sum_{j=0}^{n-m-k}",
            lambda m, p: (add(*[conv(fm(m), fm(m + p), offset=-m - k)
                                for k in range(p)]),
                          sub(fm(m + p), fm(m)), m))
    _family(out, "seq", "gap2", {"m": range(1, 8)},
            "F_{n-m-j}^{(m+2)} + F_{n-m-j-1}^{(m+2)}",
            lambda m: (conv(fm(m), add(fm(m + 2, 1), fm(m + 2)), offset=-m - 1),
                       sub(fm(m + 2), fm(m)), m))
    out.append(_seq(
        "trib_partial_sum", conv(term("T")),
        scale(Fraction(1, 2), add(term("T", 2), term("T"), const(-1))),
        quote="\\frac{1}{2} (T_{n+2} + T_{n} - 1)"))
    out.append(_seq(
        "conv_FQ_shift2", conv(term("F", 2), term("Q")),
        sub(term("Q", 3), term("F", 3)),
        quote="F_{j+2} Q_{n-j}"))
    _family(out, "seq", "double_psum", {"p": range(1, 9)}, "F^{(p+1)}_n - 1",
            lambda p: (add(*[conv(fm(p + 1), offset=-2 - k) for k in range(p)]),
                       add(fm(p + 1), const(-1)), p))
    # Partial sum theorem, corrected inner index n+m-1-k (the printed n+k
    # variant fails; it is kept below as a documented misprint).
    _family(out, "seq", "partial_sum", {"m": range(2, 9)}, "\\frac{1}{m-1}",
            lambda m: (conv(fm(m)),
                       scale(Fraction(1, m - 1), add(
                           fm(m, m),
                           *[scale(-k, fm(m, m - 1 - k)) for k in range(1, m - 1)],
                           const(-1)))))
    printed_rhs = scale(Fraction(1, 3), add(
        term("Q", 4), scale(-1, term("Q", 1)), scale(-2, term("Q", 2)), const(-1)))
    out.append(_seq(
        "printed_partial_sum_m4", conv(term("Q")), printed_rhs,
        params={"m": 4},
        quote="k F_{n+k}^{(m)}",
        negative={"first_fail": {"n": 1, "lhs": "1", "rhs": "2/3"},
                  "note": "misprinted inner index; see partial_sum_m4"}))
    out.append(_seq(
        "conv_FQ", conv(term("F"), term("Q")),
        add(term("Q", 1), term("Q", -1), scale(-1, term("F", 1))),
        quote="Q_{n+1} + Q_{n-1} - F_{n+1}"))
    out.append(_seq(
        "conv_FP", conv(term("F"), term("P")),
        scale(Fraction(1, 2), add(term("P", 2), term("P", -1), scale(-1, term("F", 2)))),
        quote="P_{n+2} + P_{n-1} - F_{n+2}"))
    out.append(_seq(
        "conv_PT", conv(term("P"), term("T")),
        scale(Fraction(1, 2), add(
            term("P", 3), term("P", 1), term("P", -1),
            scale(-1, term("T", 3)), scale(-1, term("T", 1)))),
        quote="P_{n+3} + P_{n+1} + P_{n-1} - T_{n+3} - T_{n+1}"))


def _switch_entries(out):
    _family(out, "seq", "switch", {"m": range(3, 9)},
            "F_{n-1-j}^{(m-1)} - F_{n-1-j}^{(m-2)}",
            lambda m: (conv(fm(m - 2), sub(fm(m), fm(m - 1))),
                       conv(fm(m), sub(fm(m - 1), fm(m - 2)), offset=-1), 1))
    out.append(_seq(
        "switch_TF", sub(term("T", 1), term("F", 1)),
        conv(term("T"), term("F"), offset=-1),
        n0=1, quote="T_{n+1} - F_{n+1}"))
    out.append(_seq(
        "switch_FTQ", conv(term("F"), sub(term("T"), term("Q"))),
        conv(sub(term("F"), term("T")), term("Q"), offset=-1),
        n0=1, quote="( F_{j} - T_{j}) Q_{n-1-j}"))
    out.append(_seq(
        "switch_TQP", conv(term("T"), sub(term("Q"), term("P"))),
        conv(sub(term("T"), term("Q")), term("P"), offset=-1),
        n0=1, quote="(T_{j} - Q_{j}) P_{n-1-j}"))
    _family(out, "seq", "pow2_main", {"m": range(2, 9)}, "2^j ( F_{n-1-j}^{(m-1)}",
            lambda m: (conv(fm(m - 1), fm(m)),
                       conv(geo2(0), sub(fm(m - 1, 1), fm(m)), offset=-2), 2))
    out.append(_seq(
        "pow2_F", conv(geo2(0), term("F")),
        add(geo2(1), scale(-1, term("F", 3))),
        quote="2^{n+1} - F_{n+3}"))
    out.append(_seq(
        "pow2_FT", conv(geo2(0), sub(term("F", 1), term("T"))),
        sub(term("T", 4), term("F", 4)),
        quote="T_{n+4} - F_{n+4}"))
    out.append(_seq(
        "pow2_T", conv(geo2(0), term("T")),
        add(geo2(2), scale(-1, term("T", 4))),
        quote="2^{n+2} - T_{n+4}"))
    pow2_tq_rhs = conv(geo2(0), sub(term("T", 1), term("Q")))
    out.append(_seq(
        "pow2_TQ", conv(term("T"), term("Q"), offset=2), pow2_tq_rhs,
        quote="T_j Q_{n+2-j}"))
    out.append(_seq(
        "printed_pow2_TQ", conv(term("T"), term("Q", -2), offset=2), pow2_tq_rhs,
        quote="T_j Q_{n-j}",
        negative={"first_fail": {"n": 0, "lhs": "0", "rhs": "1"},
                  "note": "misprinted upper index; see pow2_TQ"}))
    _family(out, "seq", "pow2_general", {"m": range(1, 9)}, "2^{n-1+m} - F_{n+1+m}^{(m)}",
            lambda m: (conv(geo2(0), fm(m)),
                       add(geo2(m - 1), scale(-1, fm(m, m + 1)))))


def _alternating_entries(out):
    _family(out, "seq", "alt_even", {"m": (2, 3, 4)}, "F_{j}^{(2m)}F_{n-2m+1-j}^{(2m-2)}",
            lambda m: (conv(mul(alt(0), sub(fm(2 * m), fm(2 * m - 2))), offset=-1),
                       mul(alt(1), conv(fm(2 * m), fm(2 * m - 2), offset=-(2 * m - 1))),
                       2 * m - 1))
    _family(out, "seq", "alt_odd", {"m": (1, 2, 3)}, "F_{j}^{(2m+1)}F_{n-2m-j}^{(2m-1)}",
            lambda m: (conv(mul(alt(1), sub(fm(2 * m + 1), fm(2 * m - 1))), offset=-1),
                       mul(alt(0), conv(fm(2 * m + 1), fm(2 * m - 1), offset=-2 * m)), 2 * m))
    out.append(_seq(
        "altsum_T", conv(mul(alt(0), term("T"))),
        scale(Fraction(1, 2), add(
            mul(alt(0), sub(term("T", 1), term("T", -1))), const(-1))),
        quote="(-1)^n (T_{n+1} - T_{n-1}) - 1"))
    out.append(_seq(
        "conv_PT_alt", conv(term("P"), term("T")),
        scale(Fraction(1, 2), add(
            scale(-1, term("P", 7)), scale(2, term("P", 6)), scale(-1, term("P", 5)),
            scale(2, term("P", 4)), term("P", 3),
            scale(-1, term("T", 4)), term("T", 2))),
        quote="-P_{n+7}+2P_{n+6}-P_{n+5}"))
    _family(out, "seq", "jacobsthal", {"m": range(3, 9)}, "J_{n-1} + \\sum",
            lambda m: (conv(fm(m), fm(m - 2)),
                       add(term(J, -1),
                           conv(term(J), sub(fm(m - 2, 2), fm(m)), offset=-2)), 2))
    out.append(_seq(
        "conv_JT", conv(term(J), term("T")),
        add(term(J, 1), scale(Fraction(1, 2), add(
            term(J, 2), scale(-1, term("T", 3)), scale(-1, term("T", 1))))),
        quote="J_{n+1} + \\frac{1}{2} (J_{n+2} - T_{n+3} - T_{n+1})"))
    out.append(_seq(
        "sum_J", conv(term(J)),
        scale(Fraction(1, 2), add(term(J, 2), const(-1))),
        quote="\\frac{1}{2} (J_{n+2} - 1)"))
    out.append(_seq(
        "sum_F", conv(term("F")), add(term("F", 2), const(-1)),
        quote="F_{n+2} - 1"))
    out.append(_seq(
        "altsum_F", conv(mul(alt(0), term("F"))),
        add(mul(alt(0), term("F", -1)), const(-1)),
        n0=1,
        quote="(-1)^n F_{n-1} - 1"))
    out.append(_seq(
        "altsum_Q", conv(mul(alt(0), term("Q"))),
        add(mul(alt(0), add(
            term("Q", 3), scale(-2, term("Q", 2)), term("Q", 1),
            scale(-1, term("Q")))), const(-1)),
        quote="Q_{n+3} - 2Q_{n+2} + Q_{n+1} - Q_n"))
    out.append(_seq(
        "altsum_P", conv(mul(alt(0), term("P"))),
        scale(Fraction(1, 2), add(mul(alt(0), add(
            scale(-1, term("P", 4)), scale(2, term("P", 3)), scale(-1, term("P", 2)),
            scale(2, term("P", 1)), term("P"))), const(-1))),
        quote="-P_{n+4} + 2P_{n+3} - P_{n+2} + 2P_{n+1} + P_n"))
    out.append(_seq(
        "sum_Pell", conv(term(PELL)),
        scale(Fraction(1, 2), add(term(PELL, 1), term(PELL), const(-1))),
        quote="\\mathcal{P}_{n+1} + \\mathcal{P}_n - 1"))
    out.append(_seq(
        "altsum_Pell", conv(mul(alt(0), term(PELL))),
        scale(Fraction(1, 2), add(
            mul(alt(0), sub(term(PELL, 1), term(PELL))), const(-1))),
        quote="(-1)^n ( \\mathcal{P}_{n+1} - \\mathcal{P}_n) - 1"))


def _multi_sequence_entries(out):
    _family(out, "seq", "pell_triple", {"m": range(2, 6)}, "Pell-Fibonacci-$m$-step-relation",
            lambda m: (conv(term(PELL), fm(m - 1), fm(m), offset=-1),
                       sub(conv(fm(m - 1), sub(term(PELL), fm(m))),
                           conv(term(PELL), fm(m), offset=-1)), 1))
    ftp_lhs = conv(term(PELL), term("F"), term("T"))
    out.append(_seq(
        "conv_PellFT_a", ftp_lhs,
        add(term(PELL, 1), term("F", 2), scale(-1, term("T", 3)),
            scale(-1, conv(term(PELL), term("T")))),
        quote="\\mathcal{P}_{n+1} + F_{n+2} - T_{n+3}"))
    out.append(_seq(
        "conv_PellFT_b", ftp_lhs,
        add(scale(Fraction(1, 2), add(
            term(PELL, 1), scale(-1, term("T", 3)), scale(-1, term("T", 2)))),
            term("F", 2)),
        quote="\\mathcal{P}_{n+1} - T_{n+3} - T_{n+2}"))
    out.append(_seq(
        "conv_PellT", conv(term(PELL), term("T")),
        scale(Fraction(1, 2), add(
            term(PELL, 1), scale(-1, term("T", 1)), scale(-1, term("T")))),
        quote="\\mathcal{P}_{n+1} - T_{n+1} - T_{n}"))
    _family(out, "seq", "pellpow", {"r": (1, 2, 3)}, "\\mathcal{P}_n - \\sum_{s=1}^r",
            lambda r: (conv(term(PELL), *[term("F")] * r),
                       sub(term(PELL), add(
                           term("F"), *[conv(*[term("F")] * s) for s in range(2, r + 1)]))))
    pell_poly3 = scale(Fraction(-1, 5), add(
        mul(npoly(-1, 1), term("F")), mul(npoly(0, 2), term("F", -1))))
    out.append(_seq(
        "pell_FF_npoly", conv(term(PELL), term("F"), term("F")),
        add(term(PELL), scale(-1, term("F")), pell_poly3),
        n0=1,
        quote="(n-1)F_n + 2n F_{n-1}"))
    out.append(_seq(
        "pell_FFF_npoly", conv(term(PELL), term("F"), term("F"), term("F")),
        add(term(PELL), scale(-1, term("F")), pell_poly3,
            scale(Fraction(-1, 50), add(
                mul(npoly(-2, -9, 5), term("F", -1)),
                mul(npoly(-2, -3, 5), term("F", -2))))),
        n0=2,
        quote="(5n^2-9n-2) F_{n-1}"))
    out.append(_seq(
        "conv_FTQ", conv(term("F"), term("T"), term("Q")),
        add(term("Q", 4), term("Q", 2), scale(-1, term("T", 5)), term("F", 3)),
        quote="Q_{n+4} + Q_{n+2} - T_{n+5} + F_{n+3}"))
    out.append(_seq(
        "conv_TQP", conv(term("T"), term("Q"), term("P"), offset=-7),
        add(scale(Fraction(1, 2), add(
            term("P"), term("P", -2), term("P", -4),
            term("T"), scale(-1, term("T", -2)))),
            scale(-1, term("Q"))),
        n0=7,
        quote="\\frac{1}{2}(P_n + P_{n-2} + P_{n-4}"))
    out.append(_seq(
        "conv_FQP", conv(term("F"), term("Q"), term("P"), offset=-5),
        add(scale(-1, term("Q")), scale(-1, term("Q", -2)),
            scale(Fraction(1, 2), add(
                term("P", 1), term("P", -2), scale(-1, term("F", 1)))),
            term("F")),
        quote="- Q_n - Q_{n-2}"))
    out.append(_seq(
        "conv_FTP", conv(term("F"), term("T"), term("P"), offset=-5),
        scale(Fraction(1, 2), add(
            term("P"), scale(-1, term("P", -1)), term("P", -2),
            scale(-1, term("T")), scale(-1, term("T", -2)), term("F", -1))),
        quote="P_n-P_{n-1}+P_{n-2}"))
    out.append(_seq(
        "conv_FTQP", conv(term("F"), term("T"), term("Q"), term("P"), offset=-5),
        add(scale(Fraction(1, 2), add(
            term("P", 4), scale(-1, term("P", 3)), term("P", 2),
            term("T", 3), term("T", 1), scale(-1, term("F")))),
            scale(-1, term("Q", 3)), scale(-1, term("Q", 1))),
        quote="P_{n+4}-P_{n+3}+P_{n+2}"))
    _family(out, "seq", "quad_switch", {"m": (1, 2)}, "F^{(m+3)}_j-F^{(m+2)}_j",
            lambda m: (conv(*[fm(m + j) for j in range(4)], offset=-(2 * m + 2)),
                       conv(sub(fm(m + 3), fm(m + 2)),
                            sub(fm(m + 1), fm(m)))))


def _reduction_entries(out):
    for m in (2, 3):
        for ell in (1, 2):
            shift = ell * (m + ell - 1)
            diffs = [
                sub(fm(m + 2 * j + 1), fm(m + 2 * j))
                for j in range(ell)
            ]
            even_lhs = conv(*[fm(m + j) for j in range(2 * ell)], offset=-shift)
            even_rhs = diffs[0] if ell == 1 else conv(*diffs)
            out.append(_seq(
                f"reduce_even_l{ell}_m{m}", even_lhs, even_rhs,
                params={"m": m, "l": ell},
                quote="cut off half of the sequences"))
            odd_lhs = conv(*[fm(m + j) for j in range(2 * ell + 1)], offset=-shift)
            odd_rhs = conv(fm(m + 2 * ell), *diffs)
            out.append(_seq(
                f"reduce_odd_l{ell}_m{m}", odd_lhs, odd_rhs,
                params={"m": m, "l": ell},
                quote="cut off half of the sequences"))
    tf_q = conv(sub(term("T"), term("F")), term("Q"))
    out.append(_seq(
        "triple_FTQ_switch_a", conv(term("F"), term("T"), term("Q"), offset=-2), tf_q,
        quote="\\sum_{j=0}^n(T_j-F_j)Q_{n-j}"))
    out.append(_seq(
        "triple_FTQ_switch_b", tf_q,
        conv(sub(term("Q"), term("T")), term("F"), offset=1),
        quote="F_{n+1-j}(Q_j-T_j)"))


def _case_study_entries(out):
    s, o = "hexanacci", "octanacci"
    out.append(_seq(
        "conv_sQ_hexa",
        add(term(s), term(s, -2), scale(-1, term("Q")), scale(-1, term("Q", -2))),
        add(conv(term(s), term("Q", 4), offset=-7),
            scale(2, term(s, -6)), term(s, -5)),
        quote="2s_{n-6}+s_{n-5}"))
    out.append(_seq(
        "conv_sF_hexa", conv(term("F"), term(s)),
        scale(Fraction(1, 5), add(
            term(s, 3), term(s, 1), scale(-1, term(s)), scale(3, term(s, -1)),
            term(s, -3), scale(-1, term("F", 3)), scale(-1, term("F", 1)))),
        n0=3,
        quote="s_{n+3}+s_{n+1}-s_n+3s_{n-1}"))
    out.append(_seq(
        "conv_OF_octa", conv(term(o), term("F")),
        scale(Fraction(1, 4), add(
            term(o, 3), scale(-1, term(o)), scale(2, term(o, -1)), term(o, -3),
            scale(-1, term("F", 3)))),
        quote="\\mathcal{O}_{n+3}-\\mathcal{O}_{n}+2\\mathcal{O}_{n-1}"))
    _family(out, "seq", "window4", {"m": range(2, 7)}, "4F_{n+2m}^{(m)}",
            lambda m: (add(*[fm(m, k) for k in range(2 * m + 2)]),
                       scale(4, fm(m, 2 * m))))
    out.append(_seq(
        "wsum_5F",
        add(term("F"), term("F", 1), scale(2, term("F", 2)), scale(2, term("F", 3)),
            term("F", 4), term("F", 5)),
        scale(5, term("F", 4)),
        quote="5F_{n+4}"))
    out.append(_seq(
        "wsum_11F",
        add(scale(2, term("F")), scale(2, term("F", 1)), scale(3, term("F", 2)),
            scale(3, term("F", 3)), scale(3, term("F", 4)), term("F", 5),
            term("F", 6)),
        scale(11, term("F", 4)),
        quote="11 F_{n+4}"))
    out.append(_seq(
        "wsum_3Q",
        add(term("Q"), term("Q", 1), term("Q", 2), term("Q", 3), term("Q", 4),
            scale(2, term("Q", 5)), scale(2, term("Q", 6)), scale(2, term("Q", 7)),
            term("Q", 8)),
        scale(3, term("Q", 8)),
        quote="3Q_{n+8}"))
    out.append(_seq(
        "wsum_11T",
        add(scale(2, term("T")), scale(2, term("T", 1)), scale(3, term("T", 2)),
            scale(5, term("T", 3)), scale(5, term("T", 4)), scale(3, term("T", 5)),
            scale(3, term("T", 6)), scale(2, term("T", 7))),
        scale(11, term("T", 6)),
        quote="11T_{n+6}"))


# -- GF-level functional equations -----------------------------------------------------


def _gf_entries(out):
    p2 = gdiv(gx(1), gpoly(1, -2))
    r_gf = gdiv(gx(1), gpoly(1, 0, -1))
    _family(out, "gf", "gf_adjacent", {"m": range(1, 9)},
            "F^{(m+1)}(x) - F^{(m)} (x) = x^m F^{(m)}(x)F^{(m+1)}(x)",
            lambda m: (gsub(gfm(m + 1), gfm(m)),
                       gmul(gx(m), gfm(m), gfm(m + 1))))
    _family(out, "gf", "gf_pgap", {"m": range(1, 9), "p": lambda m: range(2, 10 - m)},
            "\\sum_{k=1}^p x^{m+k-1}",
            lambda m, p: (gsub(gfm(m + p), gfm(m)),
                          gmul(_window(p, m), gfm(m), gfm(m + p))))
    _family(out, "gf", "gf_switch", {"m": range(3, 9)},
            "F^{(m-2)}(x) (F^{(m)}(x) - F^{(m-1)}(x))",
            lambda m: (gmul(gfm(m - 2), gsub(gfm(m), gfm(m - 1))),
                       gmul(gx(1), gfm(m), gsub(gfm(m - 1), gfm(m - 2)))))
    _family(out, "gf", "gf_pow2", {"m": range(2, 9)},
            "P_2(x) F^{(m-1)}(x) = F^{(m)}(x) F^{(m-1)}(x) + x P_2(x) F^{(m)}(x)",
            lambda m: (gmul(p2, gfm(m - 1)),
                       gadd(gmul(gfm(m), gfm(m - 1)), gmul(gx(1), p2, gfm(m)))))
    _family(out, "gf", "gf_alt_even", {"m": (2, 3, 4)},
            "\\frac{1}{F^{(2m)}(-x)} = \\frac{1}{F^{(2m-2)}(-x)} - x^{2m-1}\\frac{1}{F^{(1)}(x)}",
            lambda m: (gmul(gsub(gsubneg(gfm(2 * m)), gsubneg(gfm(2 * m - 2))), gseq("F1")),
                       gmul(gx(2 * m - 1), gsubneg(gfm(2 * m)), gsubneg(gfm(2 * m - 2)))))
    _family(out, "gf", "gf_alt_odd", {"m": (1, 2, 3)},
            "x^{2m} F^{(2m-1)}(-x) F^{(2m+1)}(-x)",
            lambda m: (gmul(gsub(gsubneg(gfm(2 * m - 1)), gsubneg(gfm(2 * m + 1))), gseq("F1")),
                       gmul(gx(2 * m), gsubneg(gfm(2 * m - 1)), gsubneg(gfm(2 * m + 1)))))
    _family(out, "gf", "gf_jacobsthal", {"m": range(3, 9)},
            "\\frac{x}{F^{(m)}(x)} = \\frac{x}{J(x)} + \\frac{x^3}{F^{(m-2)}(x)}",
            lambda m: (gdiv(gx(1), gfm(m)),
                       gadd(gdiv(gx(1), gseq(J)), gdiv(gx(3), gfm(m - 2)))))
    _family(out, "gf", "gf_pell", {"m": range(2, 9)},
            "x \\mathcal{P}(x) F^{(m-1)}(x) F^{(m)}(x)",
            lambda m: (gmul(gx(1), gseq(PELL), gfm(m - 1), gfm(m)),
                       gsub(gmul(gfm(m - 1), gsub(gseq(PELL), gfm(m))),
                            gmul(gx(1), gseq(PELL), gfm(m)))))
    _family(out, "gf", "gf_triple", {"m": (1, 2, 3), "p": (1, 2, 3), "q": (1, 2, 3)},
            "(1-x^p)(1-x^q)",
            lambda m, p, q: (gmul(gx(2 * m + p), gone_minus_xp(p), gone_minus_xp(q),
                                  gfm(m), gfm(m + p), gfm(m + p + q)),
                             gsub(gmul(gx(m), gpoly(1, -1), gone_minus_xp(p),
                                       gfm(m), gfm(m + p + q)),
                                  gmul(gpoly(1, -1), gpoly(1, -1),
                                       gsub(gfm(m + p), gfm(m))))))
    _family(out, "gf", "gf_FpFm", {"m": range(1, 5), "p": range(1, 6)},
            "F^{(p)}(x)F^{(m+1)}(x)-F^{(p)}(x)F^{(m)}(x)",
            lambda m, p: (gmul(gx(m), gfm(m), gfm(m + 1), gfm(p)),
                          gsub(gmul(gfm(p), gfm(m + 1)),
                               gmul(gfm(p), gfm(m)))))
    # The quad and factor families interleave: m = 1 of each, then m = 2.
    quad, factor = [], []
    _family(quad, "gf", "gf_quad", {"m": (1, 2)}, "x^m F^{(m)}(x)F^{(m+2)}(x) F^{(m+3)}(x)",
            lambda m: (gmul(gx(2 * m + 1), *[gfm(m + j) for j in range(4)]),
                       gadd(gmul(gx(m), gfm(m), gfm(m + 2), gfm(m + 3)),
                            gneg(gmul(gfm(m + 1), gfm(m + 3))),
                            gmul(gfm(m), gfm(m + 3)))))
    _family(factor, "gf", "gf_factor", {"m": (1, 2)}, "\\big(F^{(m+1)}(x)-F^{(m)}(x)\\big)",
            lambda m: (gmul(gx(2 * m + 2), *[gfm(m + j) for j in range(4)]),
                       gmul(gsub(gfm(m + 1), gfm(m)),
                            gsub(gfm(m + 3), gfm(m + 2)))))
    out += [entry for pair in zip(quad, factor) for entry in pair]
    f, t, q, p = gseq("F"), gseq("T"), gseq("Q"), gseq("P")
    out.append(_gf("gf_remark_PQ", gsub(p, q), gmul(gx(4), p, q),
                   quote="P(x)-Q(x)=x^4P(x)Q(x)"))
    out.append(_gf(
        "gf_remark_Q_from_F", q,
        gdiv(f, gadd(gpoly(1, 0, 1), gneg(gmul(gx(1), f)))),
        quote="Q(x)=\\frac{F(x)}{1+x^2-xF(x)}"))
    out.append(_gf(
        "gf_remark_P_inv", gdiv(gx(1), p),
        gadd(gdiv(gx(1), f), gdiv(gx(4), f), gpoly(0, 0, 0, -2)),
        quote="\\frac{x}{P(x)}=\\frac{x}{F(x)}+\\frac{x^4}{F(x)}-2x^3"))
    out.append(_gf(
        "gf_remark_PF", gsub(p, f),
        gsub(gmul(gpoly(0, 0, 2), f, p), gmul(gx(3), p)),
        quote="P(x)-F(x)=2x^2F(x)P(x)-x^3P(x)"))
    out.append(_gf(
        "gf_remark_F_from_T", f,
        gdiv(t, gadd(gpoly(1), gmul(gpoly(0, 0, 1), t))),
        quote="F(x)=\\frac{T(x)}{1+x^2T(x)}"))
    out.append(_gf(
        "gf_remark_T_pell_R", gdiv(gpoly(1), t),
        gadd(gdiv(gpoly(1), gseq(PELL)), gmul(gx(1), gdiv(gpoly(1), r_gf))),
        quote="\\frac{1}{T(x)}=\\frac{1}{\\mathcal{P}(x)}+x\\cdot\\frac{1}{R(x)}"))
    out.append(_gf(
        "gf_remark_pellT_R", gmul(gx(1), gseq(PELL), t),
        gmul(r_gf, gsub(gseq(PELL), t)),
        quote="x\\mathcal{P}(x)T(x)=R(x)(\\mathcal{P}(x)-T(x))"))
    out.append(_gf(
        "gf_chain_FTQ", gmul(gx(5), f, t, q),
        gadd(gmul(gx(2), f, q), gneg(t), f),
        quote="x^5 F(x) T(x) Q(x) = x^2 F(x) Q(x) -T(x)+F(x)"))
    out.append(_gf(
        "gf_chain_TQP", gmul(gx(7), t, q, p),
        gadd(gmul(gx(3), t, p), gneg(q), t),
        quote="x^7 T(x) Q(x) P(x)=x^3 T(x) P(x) - Q(x) + T(x)"))
    out.append(_gf(
        "gf_chain_FTQP", gmul(gx(5), f, t, q, p),
        gadd(gmul(gx(2), f, q, p), gneg(gmul(t, p)), gmul(f, p)),
        quote="x^5F(x)T(x)Q(x)P(x)=x^2F(x)Q(x)P(x)-T(x)P(x)+F(x)P(x)"))


def build_identities() -> list:
    out: list = []
    _intro_entries(out)
    _two_sequence_entries(out)
    _switch_entries(out)
    _alternating_entries(out)
    _multi_sequence_entries(out)
    _reduction_entries(out)
    _case_study_entries(out)
    _gf_entries(out)
    return out


def main() -> int:
    """Export the catalog to stdout; 141 when stdout closes early."""
    from .cli import to_stdout  # load_manifest builds the catalog without the front end

    return to_stdout(_export)


def _export() -> int:
    json.dump(manifest_document(build_identities()), sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
