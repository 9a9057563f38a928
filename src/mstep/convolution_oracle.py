"""Brute-force convolution ground truth.

Everything here is deliberately naive: direct summation over indices and
direct enumeration of the simplex K(l, b) of nonnegative integer l-tuples
summing to b.  The acceptance tests verify the symbolic machinery against
these oracles, so this module must never share code with the solver or the
expression evaluator.
"""

from __future__ import annotations

from .sequences import SequenceHandle, handle


def conv2(a: SequenceHandle, b: SequenceHandle, n: int) -> int:
    """sum_{j=0}^{n} a_j * b_{n-j}; zero for n < 0."""
    if n < 0:
        return 0
    av = a.values(n + 1)
    bv = b.values(n + 1)
    return sum(av[j] * bv[n - j] for j in range(n + 1))


def conv_multi_prefix(factors, n_max: int) -> list:
    """Convolution of one or more sequences at n = 0 .. n_max, by iterated
    direct summation (O(n_max^2) per factor); empty for n_max < 0."""
    factors = [_as_handle(f) for f in factors]
    if not factors:
        raise ValueError("need at least one factor")
    if n_max < 0:
        return []
    acc = list(factors[0].values(n_max + 1))
    for f in factors[1:]:
        fv = f.values(n_max + 1)
        acc = [sum(acc[j] * fv[i - j] for j in range(i + 1)) for i in range(n_max + 1)]
    return acc


def conv_multi(factors, n: int) -> int:
    """Convolution of one or more sequences at index n; zero for n < 0."""
    values = conv_multi_prefix(factors, max(n, 0))
    return values[n] if n >= 0 else 0


def multi_index_sum_direct(factors, ell: int, b: int) -> int:
    """sum over K(ell, b) of the product of factor terms, by enumeration.

    Independent cross-check path for conv_multi; intended for small b.
    """
    factors = [_as_handle(f) for f in factors]
    if ell != len(factors):
        raise ValueError("ell must equal the number of factors")
    if b < 0:
        return 0

    def rec(i: int, remaining: int) -> int:
        if i == ell - 1:
            return factors[i].term(remaining)
        total = 0
        for k in range(remaining + 1):
            t = factors[i].term(k)
            if t:
                total += t * rec(i + 1, remaining - k)
        return total

    return rec(0, b)


# Factor tuples exercised by the identities in this package; the oracle
# coherence checks run over these.
REGISTERED_TUPLES = (
    ("F", "T"),
    ("T", "Q"),
    ("Q", "P"),
    ("F", "Q"),
    ("F", "P"),
    ("T", "P"),
    ("jacobsthal", "F"),
    ("jacobsthal", "T"),
    ("pell", "F"),
    ("pell", "T"),
    ("F", "hexanacci"),
    ("Q", "hexanacci"),
    ("F", "octanacci"),
    ("pow2", "F"),
    ("pow2", "T"),
    ("F", "F"),
    ("F", "T", "Q"),
    ("T", "Q", "P"),
    ("F", "Q", "P"),
    ("F", "T", "P"),
    ("pell", "F", "T"),
    ("pell", "F", "F"),
    ("F", "T", "Q", "P"),
    ("pell", "F", "F", "F"),
)


def _as_handle(f) -> SequenceHandle:
    if isinstance(f, SequenceHandle):
        return f
    return handle(f)
