"""Exact convolution identities for Fibonacci m-step, Pell and Jacobsthal numbers.

Subpackage map:

* :mod:`mstep.sequences`           recurrence specs, memoized evaluation
* :mod:`mstep.series_algebra`      exact Poly/RatFun arithmetic, Bezout, series
* :mod:`mstep.convolution_oracle`  brute-force convolution ground truth
* :mod:`mstep.expressions`         expression trees, evaluation, GF compilation
* :mod:`mstep.identity_catalog`    identities, their verifiers, the manifest format
* :mod:`mstep.manifest_build`      the identity catalog, built in process
* :mod:`mstep.closed_form_solver`  partial-fraction closed forms, case algorithm
* :mod:`mstep.pattern_search`      search for window-sum identities
* :mod:`mstep.cli`                 command-line front end

Layers load on first use: ``import mstep`` registers each layer as a lazy
module (``importlib.util.LazyLoader``), whose code runs on the first read
of a name from it, as in ``from mstep import search``.  So ``mstep search``
runs only ``sequences`` and ``pattern_search``.  ``cli`` and
``manifest_build`` are not registered: ``python -m`` runs them, and warns
when the module it runs is in ``sys.modules`` already.
"""

import importlib.util
import sys

# layer -> the names this package exports from it; `__all__` keeps this order
_EXPORTS = {
    "sequences": "RecurrenceSpec SequenceHandle handle make_mstep registry resolve",
    "series_algebra": "Poly RatFun bezout gf_of poly_gcd series_coeffs shifted_gf",
    "convolution_oracle": "conv2 conv_multi conv_multi_prefix multi_index_sum_direct",
    "expressions": "",  # exports nothing here, but loads lazily like every layer
    "identity_catalog": "Identity kernel_check load_manifest verify_numeric verify_symbolic",
    "closed_form_solver": "ClosedForm NonCoprime RepeatedFactor CaseNotApplicable"
                          " solve_conv_multi equivalent derive_case table",
    "pattern_search": "PatternSolution search",
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_LAYER_OF)


def _lazy(name: str) -> None:
    """Register mstep.<name> in sys.modules and here without running it."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    globals()[name] = module


for _layer in _EXPORTS:
    _lazy(_layer)


def __getattr__(name: str):
    if name not in _LAYER_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_LAYER_OF[name]], name)

