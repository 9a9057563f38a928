"""Integer linear-recurrence sequences under the one-sided convention.

A sequence is described by a :class:`RecurrenceSpec` (order, recurrence
coefficients, seed values) and evaluated through a :class:`SequenceHandle`
that memoizes terms as arbitrary-precision integers.  Indices are handled
with the one-sided power-series convention: ``term(n) == 0`` for every
``n < 0`` and for any index below the seed window, which matches
coefficient extraction from the ordinary generating function.

The m-step Fibonacci family (Fibonacci, Tribonacci, Tetranacci, ...) is
built by :func:`make_mstep`; :func:`registry` collects the named sequences
used throughout the package (including Jacobsthal, Pell and powers of 2).
"""

from __future__ import annotations

from collections import namedtuple

# Short names for the m-step family.  Orders outside this table get a
# generic "F<m>" name (e.g. "F9").
_MSTEP_NAMES = {
    1: "F1",
    2: "F",
    3: "T",
    4: "Q",
    5: "P",
    6: "hexanacci",
    7: "heptanacci",
    8: "octanacci",
}

# The one degree budget, on four GF denominator degrees: make_mstep's order
# m, `solve`'s summed order of the factors (cli) and, in identity_catalog,
# one --manifest side's den_degree (the catalog's largest is 25) or gf_degree
# (33).  It bounds memory too: F^(m)'s seeds 2^(k-2), k < m, take about m^2/2
# bits, so "F100000000" alone would exhaust it.  Gcds stay fast at this degree
# as series_algebra proves each from its image modulo one prime.  Slowest
# shapes at the cap, best of three cold runs, 2-vCPU VM (README, caps): `seq
# --name F500 --to 10000` 0.5 s, the seq side conv(F311 + F2, F3 + ... + F19)
# 0.1 s under `verify --all --max-n 2000 --symbolic`, `solve --factors
# F1,pow2,F,pell,T,Q,P,F6,F7,F10,F100,F351` 4.8 s and `...,F8,F10,F451` 3.8 s
# (4.3 s and 21 MB with `--oracle-n 500`; timed later, on a slower day of the VM),
# gf sides adding 16 dense fractions 1/p 0.4 s, gf sides
# 1/(p*c) against 1/(q*c) with a shared dense factor c 0.1 s.
MAX_DEN_DEGREE = 500

_ALIASES = {
    "J": "jacobsthal",
    "O": "octanacci",
    "s": "hexanacci",
    "S": "heptanacci",
}


class RecurrenceSpec(namedtuple("RecurrenceSpec", "name order coeffs seeds")):
    """Defining data of one sequence: a_n = sum(coeffs[j-1] * a_{n-j}).

    ``seeds`` holds a_0 .. a_{len(seeds)-1}; the recurrence takes over from
    index ``len(seeds)`` on.  ``len(seeds)`` equals ``order`` except for the
    order-1 m-step sequence, whose support starts at index 1 and therefore
    needs the extra seed a_1 = 1.  A named tuple, so equality and hash are
    by fields; ``_replace`` validates like the constructor.
    """

    __slots__ = ()

    def __new__(cls, name: str, order: int, coeffs: tuple, seeds: tuple):
        if order < 1:
            raise ValueError("recurrence order must be >= 1")
        if len(coeffs) != order:
            raise ValueError("coeffs length must equal the order")
        if len(seeds) < order:
            raise ValueError("need at least `order` seed values")
        if coeffs[-1] == 0:
            raise ValueError("top coefficient must be nonzero (true order)")
        return super().__new__(cls, name, order, coeffs, seeds)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class SequenceHandle:
    """Growable, memoized view of one sequence."""

    def __init__(self, spec: RecurrenceSpec):
        self.spec = spec
        # a_n = sum(c * a_{n-k}) over the sparser form of D; the telescoped
        # (1-x)*D holds only from the second recurrence term on, so the
        # first is summed densely here
        tail = sparser((1, *(-c for c in spec.coeffs)))
        self._tail = [(k, -d) for k, d in enumerate(tail) if k and d]
        first = sum(c * spec.seeds[-k] for k, c in enumerate(spec.coeffs, start=1))
        self._cache = [*spec.seeds, first]

    def term(self, n: int) -> int:
        """Value at index ``n``; zero for all ``n < 0``."""
        if n < 0:
            return 0
        self._extend(n + 1)
        return self._cache[n]

    def values(self, count: int) -> list:
        """Terms 0 .. count-1 as a new list."""
        self._extend(count)
        return self._cache[:count]

    def _extend(self, count: int) -> None:
        cache, tail = self._cache, self._tail
        for n in range(len(cache), count):
            cache.append(sum(c * cache[n - k] for k, c in tail))

    def __repr__(self):
        return f"SequenceHandle({self.spec.name})"


def sparser(den: tuple) -> tuple:
    """den or (1-x)*den, whichever has fewer nonzero coefficients (den on a
    tie), as a coefficient tuple: for F^(m), m >= 3, the second is
    1 - 2x + x^(m+1), three terms for any m."""
    telescoped = tuple(a - b for a, b in zip((*den, 0), (0, *den)))
    return telescoped if sum(map(bool, telescoped)) < sum(map(bool, den)) else den


def make_mstep(m: int) -> RecurrenceSpec:
    """The m-step Fibonacci sequence: all coefficients 1, support from n=1.

    Seeds are 0, 1, 1, 2, 4, ..., 2^(m-2); every later term is the sum of
    the previous m terms.  ``m = 1`` gives the all-ones-from-1 sequence
    0, 1, 1, 1, ... (its seed window must reach a_1, see RecurrenceSpec).
    """
    if m < 1:
        raise ValueError("m-step order must be a positive integer")
    if m > MAX_DEN_DEGREE:
        raise ValueError(f"m-step order {m} exceeds the cap {MAX_DEN_DEGREE}")
    if m == 1:
        return RecurrenceSpec("F1", 1, (1,), (0, 1))
    seeds = [0, 1] + [2 ** (k - 2) for k in range(2, m)]
    return RecurrenceSpec(mstep_name(m), m, (1,) * m, tuple(seeds))


def mstep_name(m: int) -> str:
    return _MSTEP_NAMES.get(m, f"F{m}")


def _build_registry() -> dict:
    reg = {}
    for m in range(1, 9):
        spec = make_mstep(m)
        reg[spec.name] = spec
    reg["jacobsthal"] = RecurrenceSpec("jacobsthal", 2, (1, 2), (0, 1))
    reg["pell"] = RecurrenceSpec("pell", 2, (2, 1), (0, 1))
    reg["pow2"] = RecurrenceSpec("pow2", 1, (2,), (1,))
    return reg


_REGISTRY = _build_registry()


def registry() -> dict:
    """Name -> RecurrenceSpec map of all built-in sequences."""
    return dict(_REGISTRY)


def resolve(name) -> RecurrenceSpec:
    """Look up a sequence by name, alias, or generic m-step name "F<m>",
    m in ASCII digits."""
    if isinstance(name, RecurrenceSpec):
        return name
    if name in _REGISTRY:
        return _REGISTRY[name]
    if name in _ALIASES:
        return _REGISTRY[_ALIASES[name]]
    if isinstance(name, str) and name.startswith("F") and name[1:].isdigit() and name.isascii():
        return make_mstep(int(name[1:]))
    raise KeyError(f"unknown sequence name: {name!r}")


# spec -> its SequenceHandle.  Unbounded: every spec resolved stays, with
# every term extended so far, until expressions.clear_caches() empties it.
_HANDLES: dict = {}


def handle(name_or_spec) -> SequenceHandle:
    """Shared memoizing handle for a named or explicit spec."""
    spec = resolve(name_or_spec) if isinstance(name_or_spec, str) else name_or_spec
    h = _HANDLES.get(spec)
    if h is None:
        h = _HANDLES[spec] = SequenceHandle(spec)
    return h
