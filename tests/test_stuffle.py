import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mhsums
from mhsums import oracle
from mhsums.bernoulli import _SHARED
from mhsums.bernoulli import _bernoulli_ints as table_ints
from mhsums.cli import MAX_POWER
from mhsums.closedform import ClosedForm
from mhsums.oracle import _cache, _lcm_upto, mhs_eval
from mhsums.polynomial import Polynomial
from mhsums.reducer import _bernoulli_ints, _c_poly, _faulhaber_rows, _reduce, faulhaber
from mhsums.stuffle import (
    _expand_power,
    _stuffle,
    composition_key,
    expand_power,
    product_combinations,
    stuffle,
)

comps = st.lists(st.integers(min_value=1, max_value=3), max_size=3).map(tuple)


def test_depth_one_square():
    assert stuffle((1,), (1,)) == {(1, 1): Fraction(2), (2,): Fraction(1)}


def test_identity_element():
    assert stuffle((), (2, 1)) == {(2, 1): Fraction(1)}
    assert stuffle((2, 1), ()) == {(2, 1): Fraction(1)}


def test_printed_cube_expansion():
    assert expand_power(1, 3) == {
        (1, 1, 1): Fraction(6),
        (1, 2): Fraction(3),
        (2, 1): Fraction(3),
        (3,): Fraction(1),
    }


def test_printed_fourth_power_expansion():
    assert expand_power(1, 4) == {
        (1, 1, 1, 1): Fraction(24),
        (1, 1, 2): Fraction(12),
        (1, 2, 1): Fraction(12),
        (2, 1, 1): Fraction(12),
        (2, 2): Fraction(6),
        (1, 3): Fraction(4),
        (3, 1): Fraction(4),
        (4,): Fraction(1),
    }


def test_expand_power_trivial_cases():
    assert expand_power(1, 0) == {(): Fraction(1)}
    assert expand_power(2, 1) == {(2,): Fraction(1)}
    assert expand_power(2, 2) == {(2, 2): Fraction(2), (4,): Fraction(1)}


def test_expand_power_memo_holds_ints():
    # the memo keeps int pairs, in the order and with the values of the
    # Fraction products it was built from before; expand_power hands out
    # Fractions
    for k in range(1, 5):
        for t in range(MAX_POWER + 1):
            pairs = _expand_power(k, t)
            assert all(type(c) is int and c > 0 for _, c in pairs)
            public = expand_power(k, t)
            assert list(public.items()) == list(pairs)
            assert all(type(c) is Fraction for c in public.values())
            if t:
                step = product_combinations(expand_power(k, t - 1), {(k,): Fraction(1)})
                assert list(step.items()) == list(pairs)


def test_rejects_improper():
    with pytest.raises(ValueError):
        stuffle((0, 1), (1,))
    with pytest.raises(ValueError):
        expand_power(0, 2)


@given(comps, comps)
def test_commutative(a, b):
    assert stuffle(a, b) == stuffle(b, a)


@given(comps, comps)
def test_weight_and_depth_grading(a, b):
    for comp, coeff in stuffle(a, b).items():
        assert coeff > 0
        assert sum(comp) == sum(a) + sum(b)
        assert max(len(a), len(b)) <= len(comp) <= len(a) + len(b)


@settings(max_examples=60)
@given(comps, comps, st.integers(min_value=0, max_value=12))
def test_homomorphism(a, b, n):
    lhs = mhs_eval(n, a) * mhs_eval(n, b)
    rhs = sum(c * mhs_eval(n, comp) for comp, c in stuffle(a, b).items())
    assert lhs == rhs


short_comps = st.lists(st.integers(min_value=1, max_value=3), max_size=2).map(tuple)


@settings(deadline=None)
@given(short_comps, short_comps, short_comps)
def test_associative(a, b, c):
    left = product_combinations(stuffle(a, b), {c: Fraction(1)})
    right = product_combinations({a: Fraction(1)}, stuffle(b, c))
    assert left == right


def test_improper_keys_never_reach_the_stuffle_memo():
    # a bool or zero entry in a combination's key must fail before it reaches
    # _stuffle's memo, where (True, 1) would stand for (1, 1) in every later
    # product and write JSON that does not parse
    mhsums.clear_caches()
    for bad in ({(True,): 1}, {(0,): 1}):
        with pytest.raises(ValueError, match="proper compositions only"):
            product_combinations(bad, {(1,): 1})
        with pytest.raises(ValueError, match="proper compositions only"):
            product_combinations({(1,): 1}, bad)
    square = stuffle((1,), (1,))
    assert square == {(1, 1): 2, (2,): 1}
    assert all(type(k) is int for comp in square for k in comp)
    assert ClosedForm(square).coefficient((1, 1)) == Polynomial.constant(2)
    text = mhsums.sum_power(Polynomial.constant(1), 2).to_json()
    assert json.loads(text) == json.loads(ClosedForm.from_json(text).to_json())


def test_product_combinations_bilinear():
    lhs = product_combinations(
        {(1,): Fraction(2, 3), (2,): Fraction(-1)}, {(1,): Fraction(3)}
    )
    want = {}
    for comp, c in stuffle((1,), (1,)).items():
        want[comp] = want.get(comp, Fraction(0)) + 2 * c
    for comp, c in stuffle((2,), (1,)).items():
        want[comp] = want.get(comp, Fraction(0)) - 3 * c
    want = {k: v for k, v in want.items() if v}
    assert lhs == want


def test_composition_key_orders_by_weight_depth_lex():
    items = [(2, 1), (1,), (1, 1, 1), (3,), (1, 2), (2,), (1, 1)]
    ordered = sorted(items, key=composition_key)
    assert ordered == [(1,), (2,), (1, 1), (3,), (1, 2), (2, 1), (1, 1, 1)]


def test_power_homomorphism_random():
    rng = random.Random(7)
    for _ in range(25):
        k = rng.randint(1, 3)
        t = rng.randint(0, 4)
        n = rng.randint(0, 10)
        lhs = mhs_eval(n, (k,)) ** t
        rhs = sum(c * mhs_eval(n, comp) for comp, c in expand_power(k, t).items())
        assert lhs == rhs


def test_clear_caches_empties_every_memo():
    m = Polynomial.variable()

    def results():
        return (
            mhsums.sum_product(m, [(2, 2), (4, 2)]),
            mhsums.reduce(6, (2, 1, 1)),
            mhsums.c_poly(4, (1, 2)),
            mhs_eval(30, (2, 1)),
            mhsums.reduce(6, (2, 1)).values(30),
        )

    before = results()
    memos = (
        faulhaber,
        _c_poly,
        _reduce,
        _faulhaber_rows,
        _bernoulli_ints,
        _stuffle,
        _expand_power,
        _lcm_upto,
    )
    assert set(memos) == set(mhsums._MEMOS)
    assert _bernoulli_ints is table_ints  # the reducer re-exports the table
    assert all(memo.cache_info().currsize for memo in memos) and _cache
    assert len(oracle._steps) > 30 and oracle._lifted
    mhsums.clear_caches()
    assert [memo.cache_info().currsize for memo in memos] == [0] * 8
    assert _cache == {}
    assert oracle._lifted == {}
    assert oracle._steps == [1, 1]
    assert _SHARED._minus == [1]
    assert results() == before
    assert "clear_caches" in mhsums.__all__
