"""Run one mstep CLI invocation with each layer's public functions traced.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/tracer.py SPANS_OUT.json CLI_ARG...

The listed functions are wrapped from outside the program: every module
global that is bound to a listed function (the defining module and every
``from ... import`` alias) is rebound to the wrapper, and methods (including
``RatFun.__init__``, so ``isinstance`` checks keep working) are wrapped on
their class.  Each call appends a span (name, start, end, parent) to an
in-memory list; the list is written to SPANS_OUT.json when the command
returns, together with outcome counts and the expression cache sizes.
The exit status and stdout are the CLI's own.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# module -> traced functions; "Class.method" wraps a method on its class and
# a bare class name wraps its constructor (__init__).
LAYERS = {
    "sequences": ["SequenceHandle.term", "SequenceHandle.values"],
    "series_algebra": ["RatFun", "poly_gcd", "bezout", "gf_of", "shifted_gf", "series_coeffs"],
    "expressions": ["evaluate", "evaluate_range", "gf_of_expr"],
    "identity_catalog": ["load_manifest", "verify_numeric", "verify_symbolic",
                         "compile_gf", "kernel_check"],
    "convolution_oracle": ["conv2", "conv_multi"],
    "closed_form_solver": ["solve_conv_multi", "ClosedForm.gf", "ClosedForm.check_oracle",
                           "derive_case", "equivalent"],
    "pattern_search": ["search"],
    "cli": ["main"],
}

# Span name -> (ratio metric, predicate on the return value): the tracer
# counts the calls for which the predicate holds.
OUTCOMES = {
    "series_algebra.poly_gcd": ("nontrivial_ratio", lambda g: g.degree > 0),
    "identity_catalog.kernel_check": ("pass_ratio", bool),
}

SPAN_NAMES = [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]


def _install(spans: list, outcome_counts: dict) -> None:
    stack = [-1]
    clock = time.perf_counter_ns

    def wrap(index: int, fn):
        _, judge = OUTCOMES.get(SPAN_NAMES[index], (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            me = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(me)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[me] = (index, start, end, parent)
            if judge is not None and judge(result):
                outcome_counts[SPAN_NAMES[index]] += 1
            return result

        return traced

    modules = [m for name, m in sys.modules.items() if name == "mstep" or name.startswith("mstep.")]
    for index, span in enumerate(SPAN_NAMES):
        mod_name, _, attr = span.partition(".")
        mod = importlib.import_module(f"mstep.{mod_name}")
        owner_name, _, method = attr.partition(".")
        owner = getattr(mod, owner_name)
        if method or isinstance(owner, type):
            cls, meth = (owner, method) if method else (owner, "__init__")
            setattr(cls, meth, wrap(index, vars(cls)[meth]))
            continue
        wrapper = wrap(index, owner)
        for m in modules:
            for alias, value in list(vars(m).items()):
                if value is owner:
                    setattr(m, alias, wrapper)


def main(argv: list) -> int:
    out_path, cli_args = argv[0], argv[1:]
    import mstep  # noqa: F401  (loads every layer module before wrapping)
    import mstep.cli
    from mstep import expressions

    spans: list = []
    outcome_counts = {name: 0 for name in OUTCOMES}
    _install(spans, outcome_counts)
    try:
        code = mstep.cli.main(cli_args)
    finally:
        sys.stdout.flush()
        doc = {
            "names": SPAN_NAMES,
            "spans": spans,
            "outcomes": outcome_counts,
            "cache_entries": len(expressions._RANGE_CACHE) + len(expressions._CONV_CACHE),
        }
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
