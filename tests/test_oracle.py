import sys
import threading
from fractions import Fraction
from itertools import accumulate, combinations
from math import factorial, lcm
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mhsums
from mhsums import oracle
from mhsums.oracle import _cache, _lcm_powers, _pair, harmonic, is_proper
from mhsums.oracle import mhs_eval, mhs_values


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


def fraction_values(comp, n, cache):
    """The direct evaluator on tables of ``Fraction``s: the same back-to-front
    walk over the suffixes, one ``Fraction`` sum and product per step."""
    vals = cache.get(comp)
    if vals is not None and len(vals) > n:
        return vals
    for i in range(min(len(comp), n + 1), -1, -1):
        tail, suffix = vals, comp[i:]
        vals = cache.setdefault(suffix, [Fraction(0) if suffix else Fraction(1)])
        if not suffix:
            vals.extend([Fraction(1)] * (n - i + 1 - len(vals)))
            continue
        for m in range(len(vals), n - i + 1):
            vals.append(vals[m - 1] + Fraction(m) ** (-suffix[0]) * tail[m - 1])
    return vals


def assert_tables_scaled(comp, n):
    """Every stored entry up to n of every suffix table of comp is the int
    H_m(suffix) * lcm(1..m)**w, w the sum of the suffix's positive entries.
    (Other tests may have grown the tables far past n.)"""
    reference, lcms = {}, list(accumulate(range(1, n + 1), lcm, initial=1))
    for i in range(len(comp) + 1):
        suffix = comp[i:]
        nums = _cache.get(suffix)
        if nums is not None:
            w = sum(k for k in suffix if k > 0)
            top = min(n, len(nums) - 1)
            want = fraction_values(suffix, top, reference)
            for m in range(top + 1):
                assert type(nums[m]) is int
                assert nums[m] == want[m] * lcms[m] ** w


extended_comps = st.tuples(
    st.integers(-4, 4), st.lists(st.integers(1, 4), max_size=4)
).map(lambda c: (c[0], *c[1]))


@settings(max_examples=80, deadline=None)
@given(extended_comps, st.integers(min_value=0, max_value=60))
def test_tables_match_fraction_tables(comp, n):
    want = fraction_values(comp, n, {})[: n + 1]
    assert mhs_values(n, comp) == want
    assert mhs_eval(n, comp) == want[n]
    assert _pair(n, comp) == want[n].as_integer_ratio()
    assert_tables_scaled(comp, n)


# compositions that share suffixes, so that one request extends the tables
# another one made; n runs below the depths and down to 0
shared_suffixes = (
    (),
    (1,),
    (2, 1),
    (1, 2, 1),
    (-2, 1, 2, 1),
    (3, 2, 1),
    (0, 2, 1),
    (-1,),
    (4, 3, 2, 1),
)
requests = st.lists(
    st.tuples(st.sampled_from(shared_suffixes), st.integers(min_value=0, max_value=12)),
    min_size=1,
    max_size=12,
)
reference: dict = {}
for comp in shared_suffixes:
    fraction_values(comp, 12, reference)


@settings(max_examples=60, deadline=None)
@given(requests)
def test_requests_in_any_order_share_tables(order):
    mhsums.clear_caches()
    for comp, n in order:
        assert mhs_values(n, comp) == reference[comp][: n + 1]
        assert mhs_eval(n, comp) == reference[comp][n]
        assert_tables_scaled(comp, n)


def test_public_values_are_fresh_fractions():
    vals = mhs_values(5, (2, 1))
    assert all(type(v) is Fraction for v in vals)
    assert type(mhs_eval(5, (2, 1))) is Fraction
    assert type(mhs_eval(0, ())) is Fraction and type(harmonic(4)) is Fraction
    vals[3] = Fraction(99)
    vals.append(Fraction(7))
    assert mhs_values(5, (2, 1)) == fraction_values((2, 1), 5, {})
    assert mhs_values(5, (2, 1)) is not mhs_values(5, (2, 1))
    assert len(mhs_values(2, (2, 1))) == 3


def test_clear_caches_empties_the_tables():
    want = mhs_eval(10, (1, 2))
    lifted = oracle._scaled(0, 10, (1, 2), 5)
    assert _cache and (1, 2) in _cache and (2,) in _cache
    assert oracle._lifted[((1, 2), 2)][:11] == lifted
    mhsums.clear_caches()
    assert _cache == {}
    assert oracle._lifted == {}
    assert mhs_eval(10, (1, 2)) == want
    assert oracle._scaled(0, 10, (1, 2), 5) == lifted


def test_two_threads_extend_and_read_one_table():
    mhsums.clear_caches()
    comp, top = (2, 1, 1), 150
    want = fraction_values(comp, top, {})
    bad = []
    barrier = threading.Barrier(2)

    def extend():
        barrier.wait()
        for n in range(0, top + 1, 3):
            if mhs_values(n, comp) != want[: n + 1]:
                bad.append(("extend", n))

    def read():
        barrier.wait()
        for n in range(0, top + 1, 5):
            if mhs_values(n, comp)[n] != want[n] or mhs_eval(n, comp) != want[n]:
                bad.append(("read", n))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, mid-table
    try:
        threads = [threading.Thread(target=f) for f in (extend, read)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert bad == []
    assert mhs_values(top, comp) == want
    assert_tables_scaled(comp, top)


def lifted_reference(comp, n, top):
    """H_m(comp) * lcm(1..m)**top for m = 0..n, from the Fraction tables."""
    values = fraction_values(comp, n, {})
    lcms = list(accumulate(range(1, n + 1), lcm, initial=1))
    return [values[m] * lcms[m] ** top for m in range(n + 1)]


@pytest.mark.parametrize("stops", [(10, 150), (150, 10), (0, 1, 150, 149, 151)])
def test_lifted_columns_grow_in_any_order(stops):
    # each read from 0 is a prefix of one column per (comp, top - w), which is
    # the table's slice times the column of lcm(1..m)**(top - w)
    mhsums.clear_caches()
    comps = ((2, 1), (-3, 1, 2), (1,), ())
    for n in stops:
        for comp in comps:
            w = sum(k for k in comp if k > 0)
            for e in (1, 3):
                want = oracle._scaled(0, n, comp, w)
                want = list(map(mul, want, _lcm_powers(0, n, e)))
                assert oracle._scaled(0, n, comp, w + e) == want, (n, comp, e)
    for comp in comps:
        w = sum(k for k in comp if k > 0)
        for e in (1, 3):
            column = oracle._lifted[(comp, e)]
            assert len(column) == max(stops) + 1
            assert column == lifted_reference(comp, max(stops), w + e)
    assert sorted(oracle._lifted) == sorted((c, e) for c in comps for e in (1, 3))


def test_lifted_reads_past_zero_leave_no_column():
    # a read from lo > 0 lifts its own slice; the memo is only for reads from 0
    mhsums.clear_caches()
    want = lifted_reference((2, 1), 90, 6)
    for lo, hi in ((90, 90), (1, 90), (37, 60)):
        assert oracle._scaled(lo, hi, (2, 1), 6) == want[lo : hi + 1]
    assert oracle._lifted == {}


def test_two_threads_extend_and_read_one_lifted_column():
    mhsums.clear_caches()
    comp, top, n_max = (2, 1, 1), 7, 150
    want = lifted_reference(comp, n_max, top)
    bad = []
    barrier = threading.Barrier(2)

    def extend():
        barrier.wait()
        for n in range(0, n_max + 1, 3):
            if oracle._scaled(0, n, comp, top) != want[: n + 1]:
                bad.append(("extend", n))

    def read():
        barrier.wait()
        for n in range(0, n_max + 1, 5):
            if oracle._scaled(0, n, comp, top)[n] != want[n]:
                bad.append(("read", n))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, mid-column
    try:
        threads = [threading.Thread(target=f) for f in (extend, read)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert bad == []
    assert oracle._lifted[(comp, 3)] == want


def test_scaled_numerators_after_verify():
    # every table that verify and closed-form evaluation built holds
    # H_m(comp) * lcm(1..m)**w at every m it stored
    mhsums.clear_caches()
    assert mhsums.run_verify("all", 80, echo=lambda line: None) == 0
    tables = dict(_cache)
    assert sum(len(table) for table in tables.values()) > 1000
    assert any(not is_proper(comp) for comp in tables)
    for comp, table in tables.items():
        assert_tables_scaled(comp, len(table) - 1)


# first entries up to 50 and a negative one, at depth 1 and 2; n runs past
# the prime powers 243 = 3**5, 256 = 2**8 and 289 = 17**2
WIDE_COMPS = ((50,), (50, 1), (7, 13), (-9, 4), (-50, 50), (1, 50))
WIDE_STOPS = (0, 1, 242, 243, 244, 255, 256, 288, 289, 300)


def plain_sums(comp, top):
    """H_0(comp), ..., H_top(comp) for a depth of 1 or 2, as plain running
    Fraction sums."""
    k, tail = comp[0], comp[1:]
    inner, outer = [Fraction(0 if tail else 1)], [Fraction(0)]  # H_m(tail), H_m(comp)
    for m in range(1, top + 1):
        outer.append(outer[-1] + Fraction(m) ** -k * inner[-1])
        inner.append(inner[-1] + Fraction(1, m ** tail[0]) if tail else inner[-1])
    return outer


def test_wide_entries_across_prime_powers():
    want = {comp: plain_sums(comp, 300) for comp in WIDE_COMPS}
    mhsums.clear_caches()
    # each table is extended from every stop, so its starting lcm(1..m)**k
    # is taken just before, at and just after each prime power
    for n in WIDE_STOPS:
        for comp in WIDE_COMPS:
            assert mhs_eval(n, comp) == want[comp][n]
            assert _pair(n, comp) == want[comp][n].as_integer_ratio()
    for comp in WIDE_COMPS:
        assert mhs_values(300, comp) == want[comp]
        assert_tables_scaled(comp, 300)


RUNNING_LCM = list(accumulate(range(1, 301), lcm, initial=1))  # lcm(1..m), m <= 300


def test_lcm_powers_are_the_running_lcm_powers():
    # lo and hi at, just before and just after the prime powers 243 = 3**5,
    # 256 = 2**8 and 289 = 17**2; each column from cold caches, and again
    # once the sieve has grown past it
    for lo in (0, 1, 7, 242, 243, 255, 256):
        for hi in (lo, lo + 1, 242, 243, 244, 255, 256, 257, 288, 289, 300):
            if hi < lo:
                continue
            for k in (0, 1, 2, 5):
                want = [RUNNING_LCM[m] ** k for m in range(lo, hi + 1)]
                mhsums.clear_caches()
                assert _lcm_powers(lo, hi, k) == want, (lo, hi, k)
                oracle._steps_upto(1000)
                assert _lcm_powers(lo, hi, k) == want, (lo, hi, k)
