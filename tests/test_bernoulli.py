import random
import sys
import threading
import time
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

import mhsums
from mhsums.bernoulli import BernoulliTable, bernoulli, check_twoBs, umbral_eval
from mhsums.polynomial import Polynomial

x = Polynomial.variable()


def series_oracle(count):
    """First ``count`` Bernoulli numbers (minus convention) from the
    generating function t/(e^t - 1), via exact power-series reciprocal."""
    # e^t - 1 = t * sum_{k>=0} t^k / (k+1)!
    denom = [Fraction(1, factorial(k + 1)) for k in range(count)]
    recip = [Fraction(1)]
    for k in range(1, count):
        recip.append(-sum(denom[j] * recip[k - j] for j in range(1, k + 1)))
    return [recip[k] * factorial(k) for k in range(count)]


@lru_cache(maxsize=None)
def recurrence_reference(count):
    """First ``count`` Bernoulli numbers (minus convention) from the binomial
    recurrence sum_{j=0..m} C(m + 1, j) B_j = 0, b_0 = 1, over Fractions."""
    vals = [Fraction(1)]
    for m in range(1, count):
        acc = Fraction(0)
        for j in range(m):
            if vals[j]:
                acc += comb(m + 1, j) * vals[j]
        vals.append(-acc / (m + 1))
    return tuple(vals)


def assert_matches_reference(read, top):
    """``read(i, convention)`` gives B_i in both conventions for i <= top."""
    want = recurrence_reference(top + 1)
    for i in range(top + 1):
        assert read(i, "minus") == want[i]
        assert read(i, "plus") == (-want[i] if i == 1 else want[i])


def test_tangent_table_matches_the_recurrence_however_it_grows():
    stepwise = BernoulliTable()
    for i in range(121):
        assert stepwise.value(i, "minus") == recurrence_reference(301)[i]
    assert_matches_reference(stepwise.value, 300)

    jump = BernoulliTable("minus")
    jump.value(300)
    assert_matches_reference(jump.value, 300)

    descending = BernoulliTable()
    want = recurrence_reference(301)
    for i in range(300, -1, -1):
        assert descending.value(i, "minus") == want[i]
    assert_matches_reference(descending.value, 300)


def test_shared_table_matches_the_recurrence_after_clear_caches():
    mhsums.clear_caches()
    assert_matches_reference(bernoulli, 300)
    mhsums.clear_caches()
    want = recurrence_reference(301)
    for i in range(300, -1, -1):
        assert bernoulli(i, "minus") == want[i]
    assert_matches_reference(bernoulli, 300)


def test_threads_share_one_growing_table():
    table = BernoulliTable()
    want = recurrence_reference(401)
    results = {}

    def reader(seed):
        indices = list(range(401))
        random.Random(seed).shuffle(indices)
        results[seed] = [(i, table.value(i, "minus")) for i in indices]

    threads = [threading.Thread(target=reader, args=(seed,), daemon=True) for seed in range(4)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(results) == [0, 1, 2, 3]
    for read in results.values():
        assert len(read) == 401
        assert all(value == want[i] for i, value in read)


def test_clear_caches_while_another_thread_reads():
    # clear_caches swaps in a new shared table: a reader keeps whole the list
    # it checked the length of, so it never indexes past the end
    want = [bernoulli(i, "minus") for i in range(60)]
    bad = []
    deadline = time.monotonic() + 2

    def read():
        try:
            while time.monotonic() < deadline:
                bad.extend(i for i in range(60) if bernoulli(i, "minus") != want[i])
        except Exception as exc:  # a thread's error must fail the test
            bad.append(repr(exc))

    def clear():
        while time.monotonic() < deadline and not bad:
            mhsums.clear_caches()

    threads = [threading.Thread(target=f, daemon=True) for f in (read, clear)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, between check and read
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(thread.is_alive() for thread in threads)
    assert bad == []
    assert [bernoulli(i, "minus") for i in range(60)] == want


def test_matches_generating_function():
    oracle = series_oracle(25)
    for i, want in enumerate(oracle):
        assert bernoulli(i, "minus") == want


def test_conventions_differ_only_at_one():
    for i in range(20):
        plus, minus = bernoulli(i, "plus"), bernoulli(i, "minus")
        if i == 1:
            assert plus == Fraction(1, 2) and minus == Fraction(-1, 2)
        else:
            assert plus == minus


def test_known_values():
    assert bernoulli(0) == 1
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(12) == Fraction(-691, 2730)


def test_odd_vanish():
    for i in range(3, 40, 2):
        assert bernoulli(i) == 0


def test_bad_arguments():
    with pytest.raises(ValueError):
        bernoulli(-1)
    with pytest.raises(ValueError):
        bernoulli(2, "neutral")


def test_table_grows_on_demand():
    table = BernoulliTable()
    assert table.value(30, "plus") == bernoulli(30, "plus")
    assert table.value(0) == 1


def test_umbral_eval_linear():
    # x^i evaluates to B_i, so any polynomial evaluates coefficient-wise
    p = 3 * x ** 2 - 5 * x + 2
    want = 3 * bernoulli(2, "plus") - 5 * bernoulli(1, "plus") + 2
    assert umbral_eval(p, "plus") == want == 0


@given(st.lists(st.fractions(max_denominator=30), max_size=14).map(Polynomial))
def test_umbral_eval_is_the_coefficient_sum(P):
    for convention in ("plus", "minus"):
        want = sum(
            (c * bernoulli(i, convention) for i, c in enumerate(P.coeffs)), Fraction(0)
        )
        got = umbral_eval(P, convention)
        assert type(got) is Fraction and got == want


def test_umbral_eval_of_zero_and_constants():
    for convention in ("plus", "minus"):
        assert umbral_eval(Polynomial.zero(), convention) == 0
        constant = Fraction(-3, 7)
        assert umbral_eval(Polynomial.constant(constant), convention) == constant
        assert type(umbral_eval(Polynomial.zero(), convention)) is Fraction
    # the conventions part at x alone: B_1 is 1/2 or -1/2
    assert umbral_eval(x, "plus") - umbral_eval(x, "minus") == 1


def test_umbral_shift_identity():
    # (x-1)^i at the plus-convention numbers gives the minus convention
    for i in range(25):
        assert umbral_eval((x - 1) ** i, "plus") == bernoulli(i, "minus")


def test_recurrence_plus_convention():
    # sum_j C(m+1, j) B_j = m + 1 with the plus convention
    for m in range(1, 25):
        acc = sum(comb(m + 1, j) * bernoulli(j, "plus") for j in range(m + 1))
        assert acc == m + 1


int_polys = st.lists(
    st.integers(min_value=-50, max_value=50), max_size=9
).map(Polynomial)


@given(int_polys)
def test_check_twoBs_flags_agree(p):
    minus_zero, shifted_zero = check_twoBs(p)
    assert minus_zero == shifted_zero
    assert minus_zero == (umbral_eval(p, "minus") == 0)


def test_check_twoBs_known_roots():
    assert check_twoBs(2 * x + 1) == (True, True)
    assert check_twoBs(2 * x - 1) == (False, False)
    assert check_twoBs(Polynomial.zero()) == (True, True)


def test_conventions_checked_for_every_input():
    # the zero polynomial reads no Bernoulli number, and "" is not "no convention"
    with pytest.raises(ValueError, match="unknown Bernoulli convention"):
        umbral_eval(Polynomial.zero(), "bogus")
    with pytest.raises(ValueError, match="unknown Bernoulli convention"):
        BernoulliTable("minus").value(1, "")
    assert BernoulliTable("minus").value(1, None) == Fraction(-1, 2)
