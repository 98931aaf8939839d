from fractions import Fraction
from itertools import combinations
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhsums.oracle import harmonic, is_proper, mhs_eval, mhs_values


def brute(n, comp):
    """Direct sum over strictly decreasing index tuples."""
    if not comp:
        return Fraction(1)
    total = Fraction(0)
    for idx in combinations(range(n, 0, -1), len(comp)):
        term = Fraction(1)
        for i, k in zip(idx, comp):
            term *= Fraction(1, i) ** k if k > 0 else Fraction(i) ** (-k)
        total += term
    return total


def test_frozen_values():
    assert harmonic(3) == Fraction(11, 6)
    assert mhs_eval(3, (1,)) == Fraction(11, 6)
    assert mhs_eval(3, (1, 1)) == 1
    assert mhs_eval(4, (2,)) == Fraction(205, 144)
    assert mhs_eval(3, (0, 1)) == Fraction(5, 2)


def test_empty_composition_is_one():
    for n in range(5):
        assert mhs_eval(n, ()) == 1


def test_short_range_vanishes():
    assert mhs_eval(1, (1, 1)) == 0
    assert mhs_eval(2, (1, 1, 1)) == 0
    assert mhs_eval(0, (3,)) == 0


def test_deep_composition():
    # H_n(1, ..., 1) of depth n is 1/n!; 1,100 entries is past the
    # interpreter's default recursion limit
    assert mhs_eval(1100, (1,) * 1100) == Fraction(1, factorial(1100))


def test_values_prefix():
    vals = mhs_values(6, (2, 1))
    assert len(vals) == 7
    for n in range(7):
        assert vals[n] == mhs_eval(n, (2, 1))


def test_harmonic_orders():
    assert harmonic(4, 2) == Fraction(205, 144)
    assert harmonic(0) == 0


def test_rejects_interior_nonpositive():
    with pytest.raises(ValueError):
        mhs_eval(4, (1, 0))
    with pytest.raises(ValueError):
        mhs_eval(4, (2, -1, 1))


proper_comps = st.lists(
    st.integers(min_value=1, max_value=4), max_size=3
).map(tuple)


@settings(max_examples=60)
@given(proper_comps, st.integers(min_value=0, max_value=8))
def test_matches_brute_force(comp, n):
    assert mhs_eval(n, comp) == brute(n, comp)


@given(proper_comps, st.integers(min_value=1, max_value=10))
def test_recurrence_in_n(comp, n):
    if not comp:
        return
    k, tail = comp[0], comp[1:]
    step = Fraction(1, n ** k) * mhs_eval(n - 1, tail)
    assert mhs_eval(n, comp) == mhs_eval(n - 1, comp) + step


@settings(max_examples=40)
@given(
    st.integers(min_value=0, max_value=3),
    proper_comps,
    st.integers(min_value=0, max_value=8),
)
def test_extended_first_entry(p, tail, n):
    want = sum(
        (Fraction(m) ** p) * mhs_eval(m - 1, tail) for m in range(1, n + 1)
    )
    assert mhs_eval(n, (-p,) + tail) == want


def test_is_proper():
    assert is_proper(())
    assert is_proper((3, 1))
    assert not is_proper((0, 1))
    assert not is_proper((1, -2))
