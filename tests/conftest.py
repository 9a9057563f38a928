"""Naive references shared by more than one test module."""

import pytest

from mstep.sequences import handle, make_mstep


def _verify_solution(sol, n_count: int = 50) -> bool:
    """Numeric check of a window-sum solution over n = 0 .. n_count, straight
    from the memoized sequence (no residue or kernel reasoning)."""
    if n_count < 0:
        raise ValueError("n_count must be >= 0: an empty range proves nothing")
    h = handle(make_mstep(sol.m))
    for n in range(n_count + 1):
        lhs = sum(h.term(n + j + k) for k in sol.K for j in range(sol.p))
        if lhs != sol.N * h.term(n + sol.l):
            return False
    return True


@pytest.fixture
def verify_solution():
    """The naive check of ``pattern_search`` solutions, ``_verify_solution``."""
    return _verify_solution
