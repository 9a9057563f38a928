import pytest

from mstep.sequences import RecurrenceSpec, handle, make_mstep, mstep_name, registry, resolve


def test_mstep3_prefix():
    assert handle(make_mstep(3)).values(9) == [0, 1, 1, 2, 4, 7, 13, 24, 44]


def test_mstep1_is_all_ones_from_1():
    assert handle(make_mstep(1)).values(5) == [0, 1, 1, 1, 1]


def test_mstep2_is_fibonacci():
    assert handle(make_mstep(2)).values(7) == [0, 1, 1, 2, 3, 5, 8]


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
    with pytest.raises(KeyError):
        resolve("nope")


def test_big_indices_have_many_digits():
    assert len(str(handle(make_mstep(9)).term(200))) > 50
