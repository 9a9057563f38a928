import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mstep.sequences import (
    RecurrenceSpec,
    SequenceHandle,
    handle,
    make_mstep,
    mstep_name,
    registry,
    resolve,
    sparser,
)


def dense_values(spec: RecurrenceSpec, count: int) -> list:
    """Reference extension: every term past the seeds sums all m earlier
    terms, a_n = sum(c_j * a_{n-j}), over the defining coefficients."""
    vals = list(spec.seeds)
    for n in range(len(vals), count):
        vals.append(sum(c * vals[n - j] for j, c in enumerate(spec.coeffs, start=1)))
    return vals[:count]


@st.composite
def specs(draw):
    """Orders 1-8, coefficients of either sign or zero, seed windows up to
    three longer than the order and, on half the draws, a GF numerator of
    full degree len(seeds) - 1: there the telescoped recurrence fails at the
    first recurrence term, so only the dense one is right."""
    order = draw(st.integers(1, 8))
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=order, max_size=order)
                  .filter(lambda cs: cs[-1] != 0))
    seeds = draw(st.lists(st.integers(-5, 5), min_size=order, max_size=order + 3))
    if draw(st.booleans()):
        top = len(seeds) - 1  # numerator coefficient: a_top - sum(c_j a_(top-j))
        below = sum(c * seeds[top - j] for j, c in enumerate(coeffs, start=1) if j <= top)
        seeds[top] = below + draw(st.integers(-5, 5).filter(bool))
    return RecurrenceSpec("r", order, tuple(coeffs), tuple(seeds))


@settings(deadline=None, max_examples=300)
@given(specs())
def test_sparse_extension_matches_the_dense_recurrence(spec):
    ref = dense_values(spec, 61)
    h = SequenceHandle(spec)
    assert [h.values(k) for k in range(61)] == [ref[:k] for k in range(61)]
    assert SequenceHandle(spec).values(60) == ref[:60]


def test_every_registered_spec_matches_the_dense_recurrence_to_700_terms():
    for spec in (*registry().values(), resolve("F9"), resolve("F50"), resolve("F500")):
        assert SequenceHandle(spec).values(700) == dense_values(spec, 700), spec.name


def _den(spec: RecurrenceSpec) -> tuple:
    return (1, *(-c for c in spec.coeffs))


def test_sparser_keeps_d_on_a_tie_and_when_d_is_sparser():
    for name in ("F", "F1", "pow2", "pell", "jacobsthal"):
        den = _den(resolve(name))
        assert sparser(den) == den, name
    assert sparser((1,)) == (1,)


def test_sparser_telescopes_tribonacci_through_f500_to_three_terms():
    for m in range(3, 501):
        assert sparser(_den(make_mstep(m))) == (1, -2, *[0] * (m - 1), 1), m


def test_mstep3_prefix():
    assert handle(make_mstep(3)).values(9) == [0, 1, 1, 2, 4, 7, 13, 24, 44]


def test_mstep1_is_all_ones_from_1():
    assert handle(make_mstep(1)).values(5) == [0, 1, 1, 1, 1]


def test_mstep2_is_fibonacci():
    assert handle(make_mstep(2)).values(7) == [0, 1, 1, 2, 3, 5, 8]


def test_values_returns_a_copy_of_the_cache():
    h = SequenceHandle(resolve("T"))
    h.values(6).append(-1)
    assert h.values(7) == [0, 1, 1, 2, 4, 7, 13]


def test_mstep_rejects_zero_order():
    with pytest.raises(ValueError):
        make_mstep(0)


def test_spec_validates_on_construction_and_replace():
    with pytest.raises(ValueError):
        resolve("F")._replace(coeffs=(1, 0))
    with pytest.raises(ValueError):
        RecurrenceSpec("r", 2, (1,), (0, 1))
    lucas = resolve("F")._replace(name="lucas", seeds=(2, 1))
    assert lucas == RecurrenceSpec("lucas", 2, (1, 1), (2, 1)) and lucas != resolve("F")
    assert repr(lucas) == "RecurrenceSpec(name='lucas', order=2, coeffs=(1, 1), seeds=(2, 1))"


def test_registry_contents():
    reg = registry()
    for name in ("F", "T", "Q", "P", "hexanacci", "heptanacci", "octanacci",
                 "F1", "jacobsthal", "pell", "pow2"):
        assert name in reg
    assert handle(reg["jacobsthal"]).values(7) == [0, 1, 1, 3, 5, 11, 21]
    assert handle(reg["pell"]).values(7) == [0, 1, 2, 5, 12, 29, 70]
    assert handle(reg["pow2"]).term(0) == 1


def test_term_examples():
    assert handle("F").term(10) == 55
    assert handle("Q").term(-1) == 0
    assert handle("octanacci").term(10) == 255


def test_negative_indices_are_zero():
    for name in registry():
        h = handle(name)
        assert h.term(-1) == 0 and h.term(-40) == 0


def test_recurrence_holds_past_seed_window():
    # The support of every registered sequence starts by index 1, so the
    # pure recurrence (with zero padding on the left) holds from n = 2 on;
    # pow2 already satisfies it at n = 1.
    for spec in registry().values():
        h = handle(spec)
        for n in range(2, 301):
            assert h.term(n) == sum(
                c * h.term(n - j) for j, c in enumerate(spec.coeffs, start=1)
            )


def test_doubling_prefix():
    for m in range(2, 10):
        h = handle(make_mstep(m))
        for n in range(2, m + 2):
            assert h.term(n) == 2 ** (n - 2)


def test_mstep_monotone():
    for m in range(1, 10):
        vals = handle(make_mstep(m)).values(200)
        assert all(vals[n + 1] >= vals[n] for n in range(1, 199))


def test_resolve_aliases_and_generic_names():
    assert resolve("J").name == "jacobsthal"
    assert resolve("F4").name == "Q"
    for m in range(1, 9):
        assert resolve(f"F{m}") == registry()[mstep_name(m)]
    assert resolve("F9").order == 9
    for name in ("nope", "F\u0663", "F\u00b2"):  # F<m> takes ASCII digits only
        with pytest.raises(KeyError, match="unknown sequence name"):
            resolve(name)


def test_big_indices_have_many_digits():
    assert len(str(handle(make_mstep(9)).term(200))) > 50
