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

from dataclasses import dataclass

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

# Largest order make_mstep builds.  Its seeds 2^(k-2), k < m, take about
# m^2/2 bits and every later term sums m earlier ones, so without a cap one
# short name such as "F100000000" reaches unbounded memory.  At the cap,
# `seq --name F500 --to 10000` runs in about 5 s.
MAX_MSTEP_ORDER = 500

_ALIASES = {
    "J": "jacobsthal",
    "O": "octanacci",
    "s": "hexanacci",
    "S": "heptanacci",
    "F2": "F",
    "F3": "T",
    "F4": "Q",
    "F5": "P",
    "F6": "hexanacci",
    "F7": "heptanacci",
    "F8": "octanacci",
}


@dataclass(frozen=True)
class RecurrenceSpec:
    """Defining data of one sequence: a_n = sum(coeffs[j-1] * a_{n-j}).

    ``seeds`` holds a_0 .. a_{len(seeds)-1}; the recurrence takes over from
    index ``len(seeds)`` on.  ``len(seeds)`` equals ``order`` except for the
    order-1 m-step sequence, whose support starts at index 1 and therefore
    needs the extra seed a_1 = 1.
    """

    name: str
    order: int
    coeffs: tuple
    seeds: tuple

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("recurrence order must be >= 1")
        if len(self.coeffs) != self.order:
            raise ValueError("coeffs length must equal the order")
        if len(self.seeds) < self.order:
            raise ValueError("need at least `order` seed values")
        if self.coeffs[-1] == 0:
            raise ValueError("top coefficient must be nonzero (true order)")


class SequenceHandle:
    """Growable, memoized view of one sequence."""

    def __init__(self, spec: RecurrenceSpec):
        self.spec = spec
        self._cache = list(spec.seeds)

    def term(self, n: int) -> int:
        """Value at index ``n``; zero for all ``n < 0``."""
        if n < 0:
            return 0
        self._extend(n + 1)
        return self._cache[n]

    def values(self, count: int) -> list:
        """Terms 0 .. count-1 as a list (shared cache; do not mutate)."""
        self._extend(count)
        return self._cache[:count]

    def _extend(self, count: int) -> None:
        cache = self._cache
        coeffs = self.spec.coeffs
        while len(cache) < count:
            n = len(cache)
            acc = 0
            for j, c in enumerate(coeffs, start=1):
                if c and n - j >= 0:
                    acc += c * cache[n - j]
            cache.append(acc)

    def __repr__(self):
        return f"SequenceHandle({self.spec.name})"


def make_mstep(m: int) -> RecurrenceSpec:
    """The m-step Fibonacci sequence: all coefficients 1, support from n=1.

    Seeds are 0, 1, 1, 2, 4, ..., 2^(m-2); every later term is the sum of
    the previous m terms.  ``m = 1`` gives the all-ones-from-1 sequence
    0, 1, 1, 1, ... (its seed window must reach a_1, see RecurrenceSpec).
    """
    if m < 1:
        raise ValueError("m-step order must be a positive integer")
    if m > MAX_MSTEP_ORDER:
        raise ValueError(f"m-step order {m} exceeds the cap {MAX_MSTEP_ORDER}")
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
    """Look up a sequence by name, alias, or generic m-step name "F<m>"."""
    if isinstance(name, RecurrenceSpec):
        return name
    if name in _REGISTRY:
        return _REGISTRY[name]
    if name in _ALIASES:
        return _REGISTRY[_ALIASES[name]]
    if isinstance(name, str) and name.startswith("F") and name[1:].isdigit():
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
