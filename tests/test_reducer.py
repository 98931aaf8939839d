import itertools
import json
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mhsums
from mhsums.bernoulli import bernoulli, umbral_eval
from mhsums.cli import MAX_DEGREE
from mhsums.closedform import ClosedForm, _Accumulator
from mhsums.oracle import mhs_eval, mhs_values
from mhsums.polynomial import Polynomial, _muladd, _reduced, discrete_sum
from mhsums.reducer import _chain_step, _power_sum, c_poly, d_umbral, faulhaber
from mhsums.reducer import reduce, reduce_direct
from mhsums.verify import compositions_up_to

x = Polynomial.variable()
half = Fraction(1, 2)


def faulhaber_minus(p):
    """Power-sum polynomial assembled from the minus convention.  The n^p
    correction replaces the j = 1 term's convention gap, so it only exists
    once that term does, i.e. for p >= 1."""
    out = Polynomial.zero()
    for j in range(p + 1):
        out = out + Polynomial.monomial(
            p + 1 - j, Fraction(comb(p + 1, j), p + 1) * bernoulli(j, "minus")
        )
    if p >= 1:
        out = out + Polynomial.monomial(p)
    return out


def extended_oracle(p, comp, n):
    return mhs_eval(n, (-p,) + comp)


# ------------------------------------------------------------- power sums


def test_faulhaber_small_cases():
    assert faulhaber(0) == x
    assert faulhaber(1) == x * (x + 1) / 2
    assert faulhaber(2) == x * (x + 1) * (2 * x + 1) / 6
    assert faulhaber(3) == (x * (x + 1) / 2) ** 2


def test_faulhaber_two_conventions_agree():
    for p in range(11):
        assert faulhaber(p) == faulhaber_minus(p)


def test_faulhaber_matches_discrete_sum():
    # independent route: Newton forward differences, no Bernoulli numbers
    for p in range(41):
        assert faulhaber(p) == discrete_sum(x ** p)


# ---------------------------------------------------------- c and d values


def test_c_poly_base_is_faulhaber():
    for p in range(7):
        assert c_poly(p) == faulhaber(p)
        assert c_poly(p, ()) == faulhaber(p)


def test_c_poly_linear_coefficient_is_bernoulli():
    for p in range(11):
        assert c_poly(p).coefficient(1) == bernoulli(p, "plus")


def test_c_poly_no_constant_term():
    for p in range(5):
        for index in ((), (0,), (1,), (0, 1), (1, 1), (0, 0, 0)):
            assert c_poly(p, index).coefficient(0) == 0


def test_c_poly_known_values():
    assert c_poly(0, (0,)) == x
    assert c_poly(1, (0,)) == x ** 2 / 4 + 3 * x / 4
    assert c_poly(2, (0,)) == x ** 3 / 9 + 5 * x ** 2 / 12 + 17 * x / 36


def test_c_poly_empty_index_region_is_zero():
    # the inner range is empty once the subscript exceeds the power
    assert c_poly(0, (1,)).is_zero
    assert c_poly(1, (2,)).is_zero
    assert c_poly(2, (1, 3)).is_zero


def test_c_poly_rejects_decreasing_subscripts():
    with pytest.raises(ValueError):
        c_poly(3, (1, 0))


def test_d_umbral_values():
    assert d_umbral(0) == 1
    assert d_umbral(1) == Fraction(3, 4)
    assert d_umbral(1, (0,)) == Fraction(7, 8)


# ------------------------------------------------------------ the reducer


def test_reduce_empty_composition():
    for p in range(5):
        assert reduce(p) == ClosedForm({(): faulhaber(p)})


def test_reduce_depth_one_golden():
    # partial sums of H_{m-1} telescope to n*H_n - n
    assert reduce(0, (1,)) == ClosedForm({(1,): x, (): -x})
    assert reduce(1, (1,)) == ClosedForm(
        {(1,): x * (x + 1) / 2, (): -(x ** 2) / 4 - 3 * x / 4}
    )


def test_reduce_rejects_bad_arguments():
    with pytest.raises(ValueError):
        reduce(-1, (1,))
    with pytest.raises(ValueError):
        reduce(2, (0, 1))


def test_reduce_coefficient_degree_bound():
    for p in range(5):
        for comp in compositions_up_to(4, include_empty=False):
            for _, poly in reduce(p, comp).terms:
                assert poly.degree <= p + 1


def test_reduce_deep_composition():
    # 2,000 entries, far past the recursion limit; each step of the walk
    # carries the same weight x one entry further, with the sign flipped
    want = {(1,) * (2000 - i): (-1) ** i * x for i in range(2001)}
    assert reduce(0, (1,) * 2000) == ClosedForm(want)


def test_reduce_oracle_grid():
    for p in range(4):
        for comp in compositions_up_to(3):
            cf = reduce(p, comp)
            for n in range(13):
                assert cf.eval(n) == extended_oracle(p, comp, n)


# --------------------------------------- printed reductions, depth 1 and 2


def test_all_ones_family():
    # reduce(p, {1}_r) needs only the repeated-zero subscript values
    for p in range(5):
        for r in range(1, 5):
            want = {(1,) * r: faulhaber(p)}
            for i in range(1, r + 1):
                want[(1,) * (r - i)] = (-1) ** i * c_poly(p, (0,) * i)
            assert reduce(p, (1,) * r) == ClosedForm(want)


def test_depth_two_ones():
    for p in range(5):
        want = ClosedForm(
            {
                (1, 1): faulhaber(p),
                (1,): -c_poly(p, (0,)),
                (): c_poly(p, (0, 0)),
            }
        )
        assert reduce(p, (1, 1)) == want


def test_depth_two_one_two():
    for p in range(5):
        want = ClosedForm(
            {
                (1, 2): faulhaber(p),
                (1,): Polynomial.constant(d_umbral(p)),
                (2,): -c_poly(p, (0,)),
                (): c_poly(p, (0, 1)),
            }
        )
        assert reduce(p, (1, 2)) == want


def test_depth_two_two_one():
    for p in range(5):
        want = ClosedForm(
            {
                (2, 1): faulhaber(p),
                (1, 1): Polynomial.constant(-bernoulli(p, "plus")),
                (1,): -c_poly(p, (1,)),
                (): c_poly(p, (1, 1)),
            }
        )
        assert reduce(p, (2, 1)) == want


def test_depth_one_higher_orders():
    for p in range(5):
        bp = bernoulli(p, "plus")
        wb1 = Fraction(p, 2) * bernoulli(p - 1, "plus") if p >= 1 else Fraction(0)
        wb2 = (
            Fraction(p * (p - 1), 6) * bernoulli(p - 2, "plus")
            if p >= 2
            else Fraction(0)
        )
        assert reduce(p, (2,)) == ClosedForm(
            {(2,): faulhaber(p), (1,): Polynomial.constant(-bp), (): -c_poly(p, (1,))}
        )
        assert reduce(p, (3,)) == ClosedForm(
            {
                (3,): faulhaber(p),
                (2,): Polynomial.constant(-bp),
                (1,): Polynomial.constant(-wb1),
                (): -c_poly(p, (2,)),
            }
        )
        assert reduce(p, (4,)) == ClosedForm(
            {
                (4,): faulhaber(p),
                (3,): Polynomial.constant(-bp),
                (2,): Polynomial.constant(-wb1),
                (1,): Polynomial.constant(-wb2),
                (): -c_poly(p, (3,)),
            }
        )


# --------------------------------------------------- small explicit values


def test_explicit_small_displays():
    assert reduce(0, (1, 2)) == ClosedForm(
        {(1, 2): x, (2,): -x, (1,): Polynomial.constant(1)}
    )
    assert reduce(0, (2, 1)) == ClosedForm(
        {(2, 1): x, (1, 1): Polynomial.constant(-1)}
    )
    assert reduce(1, (1, 2)) == ClosedForm(
        {
            (1, 2): x * (x + 1) / 2,
            (2,): -x * (x + 3) / 4,
            (1,): Polynomial.constant(Fraction(3, 4)),
            (): x / 4,
        }
    )
    assert reduce(1, (2, 1)) == ClosedForm(
        {
            (2, 1): x * (x + 1) / 2,
            (1, 1): Polynomial.constant(-half),
            (1,): -x / 2,
            (): x / 2,
        }
    )


# ------------------------------------------------------- weight-4 closures


def weight_four_forms(p):
    """Closed forms for every weight-4 composition, written with the
    c/d building blocks only."""
    F = faulhaber(p)
    bp = bernoulli(p, "plus")
    d_over_x = F.divide_x()
    wb1 = Fraction(p, 2) * bernoulli(p - 1, "plus") if p >= 1 else Fraction(0)
    wb2 = (
        Fraction(p * (p - 1), 6) * bernoulli(p - 2, "plus")
        if p >= 2
        else Fraction(0)
    )
    const = Polynomial.constant
    return {
        (1, 1, 1, 1): ClosedForm(
            {
                (1, 1, 1, 1): F,
                (1, 1, 1): -c_poly(p, (0,)),
                (1, 1): c_poly(p, (0, 0)),
                (1,): -c_poly(p, (0, 0, 0)),
                (): c_poly(p, (0, 0, 0, 0)),
            }
        ),
        (1, 1, 2): ClosedForm(
            {
                (1, 1, 2): F,
                (1, 2): -c_poly(p, (0,)),
                (2,): c_poly(p, (0, 0)),
                (1,): const(-d_umbral(p, (0,))),
                (): -c_poly(p, (0, 0, 1)),
            }
        ),
        (1, 2, 1): ClosedForm(
            {
                (1, 2, 1): F,
                (2, 1): -c_poly(p, (0,)),
                (1, 1): const(d_umbral(p)),
                (1,): c_poly(p, (0, 1)),
                (): -c_poly(p, (0, 1, 1)),
            }
        ),
        (2, 1, 1): ClosedForm(
            {
                (2, 1, 1): F,
                (1, 1, 1): const(-bp),
                (1, 1): -c_poly(p, (1,)),
                (1,): c_poly(p, (1, 1)),
                (): -c_poly(p, (1, 1, 1)),
            }
        ),
        (1, 3): ClosedForm(
            {
                (1, 3): F,
                (3,): -c_poly(p, (0,)),
                (2,): const(d_umbral(p)),
                (1,): const(half * umbral_eval(d_over_x.derivative(), "plus")),
                (): c_poly(p, (0, 2)),
            }
        ),
        (2, 2): ClosedForm(
            {
                (2, 2): F,
                (1, 2): const(-bp),
                (2,): -c_poly(p, (1,)),
                (1,): const(umbral_eval((d_over_x - bp).divide_x(), "plus")),
                (): c_poly(p, (1, 2)),
            }
        ),
        (3, 1): ClosedForm(
            {
                (3, 1): F,
                (2, 1): const(-bp),
                (1, 1): const(-wb1),
                (1,): -c_poly(p, (2,)),
                (): c_poly(p, (2, 2)),
            }
        ),
        (4,): ClosedForm(
            {
                (4,): F,
                (3,): const(-bp),
                (2,): const(-wb1),
                (1,): const(-wb2),
                (): -c_poly(p, (3,)),
            }
        ),
    }


def test_weight_four_closed_forms():
    for p in range(4):
        for comp, want in weight_four_forms(p).items():
            assert reduce(p, comp) == want, (p, comp)


def test_weight_four_numeric_spot():
    forms = weight_four_forms(2)
    vals = {comp: mhs_values(40, (-2,) + comp) for comp in forms}
    for comp, cf in forms.items():
        for n in range(41):
            assert cf.eval(n) == vals[comp][n]


# -------------------------------------------------- the direct closed form


def test_direct_matches_recurrence_structurally():
    comps = compositions_up_to(6, include_empty=False)
    cases = [(p, comp) for p in range(9) for comp in comps]
    # deep, high-power inputs: the merged chain keeps these polynomial in p
    cases += [(p, (1,) * r) for p in range(0, 31, 5) for r in range(1, 7)]
    cases += [(30, (1,) * 30), (100, (1,) * 10)]
    for p, comp in cases:
        assert reduce_direct(p, comp) == reduce(p, comp), (p, comp)


def test_direct_depth_three_high_weight():
    for p in (0, 3):
        for comp in ((2, 2, 1), (3, 1, 1), (1, 1, 3), (2, 1, 2)):
            assert reduce_direct(p, comp) == reduce(p, comp)


def test_direct_rejects_empty():
    with pytest.raises(ValueError):
        reduce_direct(2, ())


# ------------------------------------------ the integer chain and power sums
#
# Exact-arithmetic references on ``Fraction`` values: the chain step, the
# leading-block polynomials and the three-block formula, with one product and
# one sum per (state, j).  The three-block reference memoizes the states per
# composition prefix, which is all they depend on.


def fraction_chain_step(states, d, h):
    out = {}
    for s, acc in states.items():
        dd = d - s
        for j in range(h - s + 1):
            b = bernoulli(j, "plus")
            if b:
                out[s + j] = out.get(s + j, 0) + acc * Fraction(comb(dd, j), dd) * b
    return out


def fraction_c_poly(p, index):
    subs = (0,) + index
    top = p + 1 - subs[-1]
    states = {0: Fraction(1)}
    for a in subs:
        states = fraction_chain_step(states, p + 1 - a, top - 1)
    coeffs = [Fraction(0)] * (top + 1)
    for s, acc in states.items():
        coeffs[top - s] = acc
    return Polynomial(coeffs)


@lru_cache(maxsize=None)
def fraction_direct_states(p, head):
    """States after the step that follows the composition prefix ``head``."""
    l, w = len(head) + 1, sum(head)
    prefix = {0: Fraction(1)}
    if head:
        budget = p + l - 1 - w
        prefix = {s: a for s, a in fraction_direct_states(p, head[:-1]).items() if s <= budget}
    return fraction_chain_step(prefix, p + l - w, p + l - w - 1)


def fraction_reduce_direct(p, comp):
    ext = comp + (1,)  # the final, absorbed entry counts as 1
    terms = {}

    def add(key, coeffs):
        terms[key] = terms.get(key, Polynomial()) + Polynomial(coeffs)

    for l in range(1, len(ext) + 1):
        sign = (-1) ** l
        d = p + l - sum(ext[: l - 1])
        states = fraction_direct_states(p, ext[: l - 1])
        lead = [Fraction(0)] * (d + 1)
        for s, acc in states.items():
            lead[d - s] = -sign * acc
        add(comp[l - 1 :], lead)
        for s, acc in states.items():
            if s > p + l - sum(ext[:l]):
                add((sum(ext[:l]) + s - l - p,) + comp[l:], [sign * acc])
    return ClosedForm(terms)


def as_fractions(states, den):
    return {s: Fraction(acc, den) for s, acc in states.items()}


def test_chain_step_matches_fraction_step():
    # live and dead states (s > h, some with d - s <= 0), and h < 0
    cases = [
        ({0: 1}, 1, 5, 4),
        ({0: 3, 1: -2, 2: 7}, 5, 9, 6),
        ({0: 1, 2: 4, 5: 9, 7: 1}, 12, 7, 4),
        ({1: 6, 3: -5}, 35, 8, 3),
        ({0: 1}, 1, 3, -1),
        ({0: 2, 4: 1}, 3, 2, -2),
        ({}, 1, 6, 5),
    ]
    for states, den, d, h in cases:
        out, out_den = _chain_step(states, den, d, h)
        assert as_fractions(out, out_den) == fraction_chain_step(
            as_fractions(states, den), d, h
        ), (states, den, d, h)
        # the same keys: a merged product that cancels keeps its slot
        assert out.keys() == fraction_chain_step(as_fractions(states, den), d, h).keys()


def test_c_poly_matches_fraction_chain():
    for p in range(17):
        for r in range(5):
            for index in itertools.combinations_with_replacement(range(4), r):
                assert c_poly(p, index) == fraction_c_poly(p, index), (p, index)
    # subscripts past the power leave no live state
    for p, index in ((0, (2,)), (2, (0, 4)), (3, (1, 5, 9))):
        assert c_poly(p, index) == fraction_c_poly(p, index) == Polynomial()


@settings(deadline=None)
@given(
    st.integers(17, 40),
    st.lists(st.integers(0, 3), min_size=1, max_size=4).map(lambda a: tuple(sorted(a))),
)
def test_c_poly_matches_fraction_chain_high_powers(p, index):
    assert c_poly(p, index) == fraction_c_poly(p, index)


def test_reduce_direct_matches_fraction_formula():
    cases = [
        (p, comp)
        for p in range(31)
        for r in range(1, 3)
        for comp in itertools.product(range(1, 5), repeat=r)
    ]
    cases += [
        (p, comp)
        for p in range(4)
        for r in range(3, 6)
        for comp in itertools.product(range(1, 5), repeat=r)
    ]
    # a step whose degree budget is gone (d <= 0): its chain is empty
    cases += [(0, (5,)), (1, (4, 4)), (3, (9, 1, 1)), (2, (1, 6, 2))]
    for p, comp in cases:
        assert reduce_direct(p, comp) == fraction_reduce_direct(p, comp), (p, comp)


@settings(deadline=None)
@given(
    st.integers(4, 30),
    st.lists(st.integers(1, 4), min_size=3, max_size=5).map(tuple),
)
def test_reduce_direct_matches_fraction_formula_deep(p, comp):
    assert reduce_direct(p, comp) == fraction_reduce_direct(p, comp)


weights = st.lists(
    st.one_of(
        st.integers(-50, 50),
        st.fractions(min_value=-20, max_value=20, max_denominator=60),
    ),
    max_size=14,
)


@given(weights)
def test_power_sum_matches_faulhaber_rows(G):
    reference: list = []
    for q, g in enumerate(G):
        if g:
            _muladd(reference, faulhaber(q).coeffs, (g,))
    weight = Polynomial(G)
    S, sden = _power_sum(weight._ints, weight._den)
    assert [Fraction(c, sden) for c in S] == reference
    # _by_parts shifts S, entry by entry, into each lower state's row
    assert len(S) == len(reference)
    assert [bool(c) for c in S] == [bool(c) for c in reference]
    # reduced by one gcd: numerators and denominator are coprime
    assert sden >= 1 and gcd(sden, *S) == 1


def test_power_sum_reads_one_table_per_degree():
    # a monomial at every degree a walk reaches (a --comp entry adds one), the
    # zero rows, sparse rows and rows over den > 1, from empty memos in
    # descending and then in ascending degree: each degree's table of
    # Faulhaber's rows gives the same sums as the rows one by one
    cases = [([0] * q + [(-1) ** q * (q + 1)], 1 + q % 3 * 5) for q in range(MAX_DEGREE + 2)]
    cases += [([], 1), ([0], 7), ([0, 0, 0], 1)]
    cases += [
        ([0, 0, 5, 0, 0, 0, -7], 1),
        ([3, 0, 0], 4),
        ([1] + [0] * 40 + [-2] + [0] * 58 + [3], 2**40 * 3),
        ([0, 6, 0, 10, 0, 0, 0, 0, 15], 30),
        (list(range(-12, 13)), 360),
    ]

    def reference(G, den):
        out: list = []
        for q, g in enumerate(G):
            if g:
                _muladd(out, faulhaber(q).coeffs, (Fraction(g, den),))
        return out

    for order in (sorted(cases, key=len, reverse=True), sorted(cases, key=len)):
        mhsums.clear_caches()
        for G, den in order:
            S, sden = _power_sum(G, den)
            assert [Fraction(c, sden) for c in S] == reference(G, den), (G, den)
            assert sden >= 1 and gcd(sden, *S) == 1
            if not any(G):
                assert (S, sden) == ([], 1)


def test_built_rows_hold_fractions():
    # faulhaber and c_poly hand their rows to Polynomial without its checks
    for p in range(21):
        for poly in (faulhaber(p), c_poly(p, (1,)), c_poly(p, (0, 2)), c_poly(p, (3, 3))):
            assert all(type(c) is Fraction for c in poly.coeffs)
            assert not poly.coeffs or poly.coeffs[-1] != 0


def chain_c_poly(p, index):
    """c_poly as one chain from its first step: every subscript's step on
    the states of the one before, none read back from a prefix's polynomial."""
    subs = (0,) + tuple(index)
    top = p + 1 - subs[-1]
    states, den = {0: 1}, 1
    for a in subs:
        states, den = _chain_step(states, den, p + 1 - a, top - 1)
    ints = [0] * (top + 1)
    for s, acc in states.items():
        ints[top - s] = acc
    return _reduced(den, ints)


SMALL_INDICES = [
    index
    for r in range(5)
    for index in itertools.combinations_with_replacement(range(4), r)
]


def test_c_poly_matches_the_whole_chain():
    for p in range(41):
        for index in SMALL_INDICES:
            assert c_poly(p, index) == chain_c_poly(p, index), (p, index)


@pytest.mark.parametrize("order", ["ascending", "descending"])
def test_c_poly_from_cold_memos_in_either_order(order):
    # a fresh process starts with an empty memo: each prefix is built, in
    # ascending order of length, by c_poly, or, in descending order, by the
    # longest index first
    indices = sorted(SMALL_INDICES, key=len, reverse=order == "descending")
    probe = (
        "import json, sys; from mhsums.reducer import c_poly\n"
        "out = [[p, i, *(lambda f: (f._den, f._ints))(c_poly(p, tuple(i)))]\n"
        "       for p, i in json.load(sys.stdin)]\n"
        "print(json.dumps(out))"
    )
    cases = [(p, index) for index in indices for p in range(41)]
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        input=json.dumps(cases),
        capture_output=True,
        text=True,
        check=True,
    )
    for p, index, den, ints in json.loads(proc.stdout):
        want = chain_c_poly(p, tuple(index))
        assert (den, tuple(ints)) == (want._den, want._ints), (p, index)


def test_c_poly_deep_index_needs_no_recursion():
    index = (0,) * 1500
    assert c_poly(3, index) == chain_c_poly(3, index)
    assert c_poly(3, index[:700]) == chain_c_poly(3, index[:700])


def test_c_poly_without_subscripts_is_faulhaber():
    for p in range(41):
        assert c_poly(p) == faulhaber(p)


def single_pass_reduce_direct(p, comp):
    """reduce_direct as one loop over the composition: each step's chain runs
    on the states of the step before, those past its budget dropped first,
    with nothing kept between calls."""
    r = len(comp)
    kw = [0] * (r + 2)
    for i in range(1, r + 1):
        kw[i] = kw[i - 1] + comp[i - 1]
    kw[r + 1] = kw[r] + 1
    out = _Accumulator()
    prefix, den = {0: 1}, 1
    for l in range(1, r + 2):
        sign = -1 if l % 2 else 1
        d = p + l - kw[l - 1]
        states, den = _chain_step(prefix, den, d, d - 1)
        lead = [0] * (d + 1)
        for s, acc in states.items():
            lead[d - s] = acc
        out.add_ints(comp[l - 1 :], lead, den, -sign)
        budget = p + l - kw[l]
        prefix = {}
        for s, acc in states.items():
            if s <= budget:
                prefix[s] = acc
            else:
                out.add_ints((kw[l] + s - l - p,) + comp[l:], (acc,), den, sign)
    return out.freeze()


DIRECT_COMPS = compositions_up_to(7, include_empty=False)


@pytest.mark.parametrize("order", ["ascending", "descending"])
def test_reduce_direct_from_cold_memos_in_either_order(order):
    # a fresh process starts with no chain memoized: ascending by depth,
    # each composition's prefixes were met before; descending, the deepest
    # composition of each family builds them all
    comps = sorted(DIRECT_COMPS, key=len, reverse=order == "descending")
    probe = (
        "import json, sys; from mhsums.reducer import reduce_direct\n"
        "print(json.dumps([reduce_direct(p, tuple(c)).to_json()\n"
        "                  for p, c in json.load(sys.stdin)]))"
    )
    cases = [(p, comp) for comp in comps for p in (0, 1, 6, 13, 26)]
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        input=json.dumps(cases),
        capture_output=True,
        text=True,
        check=True,
    )
    for (p, comp), text in zip(cases, json.loads(proc.stdout), strict=True):
        assert text == single_pass_reduce_direct(p, comp).to_json(), (p, comp)


def test_reduce_direct_deep_composition_needs_no_recursion():
    comp = (1,) * 1500
    assert reduce_direct(3, comp) == single_pass_reduce_direct(3, comp)
