"""Exact convolution identities for Fibonacci m-step, Pell and Jacobsthal numbers.

Subpackage map:

* :mod:`mstep.sequences`           recurrence specs, memoized evaluation
* :mod:`mstep.series_algebra`      exact Poly/RatFun arithmetic, Bezout, series
* :mod:`mstep.convolution_oracle`  brute-force convolution ground truth
* :mod:`mstep.expressions`         expression trees, evaluation, GF compilation
* :mod:`mstep.identity_catalog`    identities, their verifiers, JSON catalog IO
* :mod:`mstep.manifest_build`      the identity catalog, built in process
* :mod:`mstep.closed_form_solver`  partial-fraction closed forms, case algorithm
* :mod:`mstep.pattern_search`      search for window-sum identities
* :mod:`mstep.cli`                 command-line front end
"""

from .closed_form_solver import (
    CaseNotApplicable,
    ClosedForm,
    NonCoprime,
    RepeatedFactor,
    derive_case,
    equivalent,
    solve_conv_multi,
    table,
)
from .convolution_oracle import conv2, conv_multi, conv_multi_prefix, multi_index_sum_direct
from .identity_catalog import (
    Identity,
    kernel_check,
    load_manifest,
    verify_numeric,
    verify_symbolic,
)
from .pattern_search import PatternSolution, search
from .sequences import RecurrenceSpec, SequenceHandle, handle, make_mstep, registry, resolve
from .series_algebra import Poly, RatFun, bezout, gf_of, poly_gcd, series_coeffs, shifted_gf

__all__ = [
    "RecurrenceSpec",
    "SequenceHandle",
    "handle",
    "make_mstep",
    "registry",
    "resolve",
    "Poly",
    "RatFun",
    "bezout",
    "gf_of",
    "poly_gcd",
    "series_coeffs",
    "shifted_gf",
    "conv2",
    "conv_multi",
    "conv_multi_prefix",
    "multi_index_sum_direct",
    "Identity",
    "kernel_check",
    "load_manifest",
    "verify_numeric",
    "verify_symbolic",
    "ClosedForm",
    "NonCoprime",
    "RepeatedFactor",
    "CaseNotApplicable",
    "solve_conv_multi",
    "equivalent",
    "derive_case",
    "table",
    "PatternSolution",
    "search",
]
