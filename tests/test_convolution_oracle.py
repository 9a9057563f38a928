from fractions import Fraction

import pytest

from mstep.convolution_oracle import (
    REGISTERED_TUPLES,
    conv2,
    conv_multi,
    conv_multi_prefix,
    multi_index_sum_direct,
)
from mstep.sequences import handle
from mstep.series_algebra import gf_of, series_coeffs


def test_conv2_examples():
    F, T = handle("F"), handle("T")
    assert conv2(F, T, 4) == 5 == T.term(6) - F.term(6)
    assert conv2(handle("pell"), F, 4) == 9 == handle("pell").term(4) - F.term(4)
    assert conv2(F, T, 0) == 0
    assert conv2(F, T, -3) == 0


def test_conv_multi_examples():
    Q = handle("Q")
    assert conv_multi(["F", "T", "Q"], 3) == 1
    assert conv_multi(["F", "T", "Q"], 3) == (
        Q.term(7) + Q.term(5) - handle("T").term(8) + handle("F").term(6))
    assert conv_multi(["F", "T", "Q", "P"], 4) == 1
    for n in range(20):
        assert conv_multi(["F"], n) == handle("F").term(n)


def test_direct_enumeration_examples():
    assert multi_index_sum_direct(["F", "T", "Q"], 3, 3) == 1
    pell, F = handle("pell"), handle("F")
    v = multi_index_sum_direct(["pell", "F", "F"], 3, 3)
    assert v == 1
    assert v == pell.term(3) - F.term(3) - Fraction(1, 5) * (2 * F.term(3) + 6 * F.term(2))
    assert multi_index_sum_direct(["F", "T"], 2, 0) == 0


def test_direct_requires_matching_arity():
    with pytest.raises(ValueError):
        multi_index_sum_direct(["F", "T"], 3, 4)


def test_conv_multi_agrees_with_direct_enumeration():
    for factors in REGISTERED_TUPLES:
        ell = len(factors)
        for n in range(26):
            assert conv_multi(factors, n) == multi_index_sum_direct(factors, ell, n)


def test_conv_multi_prefix_agrees_with_direct_enumeration():
    for factors in REGISTERED_TUPLES:
        values = conv_multi_prefix(factors, 30)
        assert len(values) == 31
        assert values == [multi_index_sum_direct(factors, len(factors), n) for n in range(31)]


def test_conv_multi_prefix_edges():
    assert conv_multi_prefix(["F"], -1) == []
    assert conv_multi(["F", "T"], -2) == 0
    with pytest.raises(ValueError):
        conv_multi_prefix([], 5)
    with pytest.raises(ValueError):
        conv_multi([], -1)


def test_conv2_matches_series_of_gf_product():
    pairs = [t for t in REGISTERED_TUPLES if len(t) == 2]
    for a, b in pairs:
        fa, fb = gf_of(handle(a).spec), gf_of(handle(b).spec)
        coeffs = series_coeffs(fa * fb, 101)
        for n in range(101):
            assert conv2(handle(a), handle(b), n) == coeffs[n]
