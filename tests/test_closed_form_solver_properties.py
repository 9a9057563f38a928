"""Property test for the partial-fraction solver on random integer recurrences
outside the registry: the closed form is GF-equal to the product, agrees with
the naive oracle, and renders.  Random seeds give non-monomial numerators and
polynomial corrections, which no registered sequence produces."""

import json

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mstep.closed_form_solver import NonCoprime, RepeatedFactor, solve_conv_multi
from mstep.convolution_oracle import conv_multi_prefix
from mstep.sequences import RecurrenceSpec

N_MAX = 30


@st.composite
def recurrence(draw, name):
    order = draw(st.integers(1, 3))
    lower = draw(st.lists(st.integers(-3, 3), min_size=order - 1, max_size=order - 1))
    top = draw(st.integers(-3, 3).filter(bool))
    seeds = draw(st.lists(st.integers(-4, 4), min_size=order, max_size=order + 2)
                 .filter(any))
    return RecurrenceSpec(name, order, (*lower, top), tuple(seeds))


spec_tuples = st.integers(2, 3).flatmap(
    lambda k: st.tuples(*(recurrence(f"r{i}") for i in range(k))))


@settings(deadline=None, max_examples=60)
@given(spec_tuples)
def test_random_recurrences_match_the_oracle(specs):
    try:
        cf = solve_conv_multi(specs)
    except (NonCoprime, RepeatedFactor):
        assume(False)
    assert cf.gf_equal
    assert cf.check_oracle(N_MAX)
    assert [cf.evaluate(n) for n in range(N_MAX + 1)] == conv_multi_prefix(specs, N_MAX)
    assert cf.text() and cf.latex()
    json.dumps(cf.to_json())
