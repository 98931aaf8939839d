import copy
import hashlib
import itertools
import json
import math
import pickle
import random
import sys
import threading
from fractions import Fraction
from operator import add, mul

import pytest
from hypothesis import given
from hypothesis import strategies as st

import mhsums
from mhsums import oracle, verify
from mhsums.cli import main
from mhsums.closedform import ClosedForm, _Accumulator, _column
from mhsums.oracle import _lcm_upto, mhs_eval
from mhsums.polynomial import Polynomial
from mhsums.reducer import reduce
from mhsums.sums import sum_power, sum_power_shifted, sum_product

x = Polynomial.variable()

SAMPLE = ClosedForm(
    {
        (): 2 * x,
        (1,): -(2 * x + 1),
        (2,): x,
        (1, 1): 2 * x,
    }
)


def test_canonical_term_order():
    comps = [comp for comp, _ in SAMPLE.terms]
    assert comps == [(), (1,), (2,), (1, 1)]


def test_zero_coefficients_dropped():
    cf = ClosedForm({(1,): Polynomial.zero(), (2,): x})
    assert [comp for comp, _ in cf.terms] == [(2,)]
    assert cf.coefficient((1,)).is_zero


def test_scalar_coefficients_coerced():
    cf = ClosedForm({(1,): 3, (): Fraction(1, 2)})
    assert cf.coefficient((1,)) == Polynomial.constant(3)
    assert cf.coefficient(()) == Polynomial.constant(Fraction(1, 2))


def test_rejects_improper_composition():
    with pytest.raises(ValueError):
        ClosedForm({(0, 1): x})
    with pytest.raises(ValueError):
        ClosedForm({(-1,): 1})


def test_eval():
    n = 5
    want = (
        2 * Fraction(n)
        - (2 * n + 1) * mhs_eval(n, (1,))
        + n * mhs_eval(n, (2,))
        + 2 * n * mhs_eval(n, (1, 1))
    )
    assert SAMPLE.eval(n) == want


def fraction_horner(poly, n):
    acc = Fraction(0)
    for c in reversed(poly.coeffs):
        acc = acc * n + c
    return acc


def reference_value(form, n):
    return sum(
        (fraction_horner(poly, n) * mhs_eval(n, comp) for comp, poly in form.terms),
        Fraction(0),
    )


# negative and non-integer coefficients; depths up to 4, so past n for small n
kernel_forms = st.dictionaries(
    st.lists(st.integers(1, 3), max_size=4).map(tuple),
    st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=12), max_size=4).map(
        Polynomial
    ),
    max_size=4,
).map(ClosedForm)


@given(kernel_forms, st.integers(0, 200))
def test_values_and_eval_match_fraction_reference(form, N):
    values = form.values(N)
    assert len(values) == N + 1
    for n in sorted({0, 1, 2, 3, N // 2, N - 1, N} & set(range(N + 1))):
        want = reference_value(form, n)
        assert values[n] == want
        assert form.eval(n) == want


def test_values_edge_cases():
    assert ClosedForm().values(30) == [0] * 31
    assert ClosedForm().eval(7) == 0
    for read in (SAMPLE.eval, SAMPLE.values, ClosedForm().eval, ClosedForm().values):
        for bad in (-1, 2.5, Fraction(3)):
            with pytest.raises(ValueError, match="^upper limit must be a nonnegative"):
                read(bad)
    assert SAMPLE.values(0) == [SAMPLE.eval(0)] == [0]
    deep = ClosedForm({(1, 1, 1): Fraction(-3, 4) * x + Fraction(1, 6), (): x})
    assert deep.values(5)[:3] == [0, 1, 2]
    assert deep.values(40) == [reference_value(deep, n) for n in range(41)]
    # a form whose coefficients share a denominator with the harmonic sums
    form = ClosedForm({(1,): Fraction(1, 6) * x * x, (2,): Fraction(-5, 12), (): 1})
    assert form.values(60) == [reference_value(form, n) for n in range(61)]
    assert [form.eval(n) for n in range(61)] == form.values(60)


@given(kernel_forms, st.integers(0, 60))
def test_ratios_are_the_values_as_int_pairs(form, N):
    ratios = form._ratios(0, N)
    assert all(type(a) is int and type(b) is int and b > 0 for a, b in ratios)
    values = form.values(N)
    assert [Fraction(a, b) for a, b in ratios] == values
    assert all(type(v) is Fraction for v in values)
    assert form._ratios(N // 2, N) == ratios[N // 2 :]
    assert type(form.eval(N)) is Fraction and form.eval(N) == values[N]


def horner_ratios(form, lo, hi):
    """_ratios(lo, hi) point by point: each coefficient by Horner's scheme at
    n, over D, times H_n(comp) * L**w, and the denominator L**W * D, with
    L = lcm(1..n), W the largest weight and D the lcm of the denominators."""
    terms = form._terms
    if not terms:
        return [(0, 1)] * (hi + 1 - lo)
    den = math.lcm(*[poly._den for poly in terms.values()])
    top = max(sum(comp) for comp in terms)
    out = []
    for n in range(lo, hi + 1):
        lcm, num = RUNNING[n], 0
        for comp, poly in terms.items():
            value = 0
            for c in reversed(poly._ints):
                value = value * n + c
            scaled = mhs_eval(n, comp) * lcm ** sum(comp)
            assert scaled.denominator == 1
            num += value * (den // poly._den) * scaled.numerator * lcm ** (top - sum(comp))
        out.append((num, lcm**top * den))
    return out


def forms_of_degree(d):
    """Forms whose highest coefficient degree is d: one with every term at
    degree d, and one with d only in a deep term and a scalar elsewhere."""
    rng = random.Random(d)

    def poly(degree):
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(degree)]
        return Polynomial(coeffs + [Fraction(rng.choice([-7, -1, 1, 5]), rng.randint(1, 6))])

    return (
        ClosedForm({(): poly(d), (1,): poly(d), (2, 1): poly(d)}),
        ClosedForm({(3,): Fraction(1, 3), (1, 1, 1): poly(d), (2,): poly(d // 2)}),
    )


@pytest.mark.parametrize("d", range(9))
def test_ratios_match_the_horner_reference(d):
    # from one point to d + 2, where forward differences take over, and far past it
    for form in forms_of_degree(d):
        for lo in (0, 1, 7):
            for hi in [lo + size - 1 for size in range(1, d + 3)] + [200]:
                assert form._ratios(lo, hi) == horner_ratios(form, lo, hi), (lo, hi)
        want = horner_ratios(form, 0, 200)
        assert form.values(200) == [Fraction(*pair) for pair in want]
        for n in (0, 1, 7, d, d + 1, d + 2, 200):
            assert form.eval(n) == Fraction(*want[n])


def test_a_mismatch_names_the_first_failing_n():
    form = ClosedForm({(): x**3 - 2, (2, 1): Fraction(1, 5) * x})
    nums, den = form._numerators(0, 30, 3)
    assert verify._matches_direct(form, (nums, 3, den), 30) == (True, "")
    for n in (9, 30):
        nums[n] += den * math.lcm(*range(1, n + 1)) ** 3
    got, want = form.eval(9), form.eval(9) + 1
    assert verify._matches_direct(form, (nums, 3, den), 30) == (
        False, f"n=9: closed {got} != direct {want}"
    )


@pytest.mark.parametrize("d", range(9))
def test_numerators_are_the_horner_reference_over_any_top(d):
    # C(n) = nums[n - lo] / (L**top * D) for every top >= W: past W, each
    # numerator is the reference's times L**(top - W)
    for form in forms_of_degree(d):
        top_weight = max(sum(comp) for comp in form._terms)
        den = math.lcm(*[poly._den for poly in form._terms.values()])
        for lo in (0, 1, 7):
            for hi in (lo, lo + d + 1, 60):
                want = horner_ratios(form, lo, hi)
                for top in (top_weight, top_weight + 2):
                    lift = [RUNNING[n] ** (top - top_weight) for n in range(lo, hi + 1)]
                    nums = [num * k for (num, _), k in zip(want, lift)]
                    assert form._numerators(lo, hi, top) == (nums, den), (lo, hi, top)
    assert ClosedForm()._numerators(7, 9, 2) == ([0, 0, 0], 1)


def lighter(form, w):
    """form without its terms of weight w or more."""
    return ClosedForm({c: p for c, p in form._terms.items() if sum(c) < w})


def test_a_lighter_or_zero_form_prints_the_values_in_lowest_terms():
    # W < w: the form is read over L(n)**w, the direct side as it is
    form = ClosedForm({(): x**3 - 2, (2, 1): Fraction(1, 5) * x})
    nums, den = form._numerators(0, 30, 5)
    assert verify._matches_direct(form, (nums, 5, den), 30) == (True, "")
    nums[13] += den * RUNNING[13] ** 5
    got, want = form.eval(13), form.eval(13) + 1
    assert verify._matches_direct(form, (nums, 5, den), 30) == (
        False, f"n=13: closed {got} != direct {want}"
    )
    # reduce's forms and the sums' forms without their heaviest terms, and
    # the zero form, against the suites' direct sides: the messages of the
    # cross-multiplied comparison that came before
    for p, comp, light, zero in (
        (2, (2, 1), "n=2: closed -5/4 != direct 0", "n=3: closed 0 != direct 9/4"),
        (0, (1, 1, 1), "n=3: closed -1/2 != direct 0", "n=4: closed 0 != direct 1/6"),
        (5, (3,), "n=1: closed -1 != direct 0", "n=2: closed 0 != direct 32"),
    ):
        direct = oracle._scaled(0, 30, (-p,) + comp, sum(comp)), sum(comp), 1
        form = lighter(reduce(p, comp), sum(comp))
        assert verify._matches_direct(form, direct, 30) == (False, light)
        assert verify._matches_direct(ClosedForm(), direct, 30) == (False, zero)
    F = Polynomial((2, -5, 3))
    for route, start, light, zero in (
        (sum_power, 1, "n=2: closed -5 != direct 4", "n=2: closed 0 != direct 4"),
        (sum_power_shifted, 0, "n=1: closed -2 != direct 0",
         "n=2: closed 0 != direct 9"),
    ):
        direct = verify._direct_weighted_sum(F, [((1,), 2)], 30, start)
        form = lighter(route(F, 2), 2)
        assert verify._matches_direct(form, direct, 30) == (False, light)
        assert verify._matches_direct(ClosedForm(), direct, 30) == (False, zero)


def test_a_heavier_form_lifts_the_direct_side():
    # W = 3 > w = 1: the direct numerators are brought to L(n)**3 at n itself.
    # The weight-3 term vanishes at n = 0..5, so up to 5 the values agree.
    base = ClosedForm({(): x**3 - 2, (1,): x / 7})
    nums, den = base._numerators(0, 6, 1)
    vanishing = math.prod([x - i for i in range(6)], start=Polynomial.constant(1))
    heavier = base + ClosedForm({(2, 1): vanishing / 3})
    assert verify._matches_direct(heavier, (nums, 1, den), 5) == (True, "")
    got, want = heavier.eval(6), base.eval(6)
    assert verify._matches_direct(heavier, (nums, 1, den), 6) == (
        False, f"n=6: closed {got} != direct {want}"
    )


def test_an_empty_range_checks_nothing():
    # max_n = 0: nothing is compared, whatever the direct side says
    for form in (ClosedForm(), ClosedForm({(): x + 1, (2,): x})):
        assert verify._matches_direct(form, ([5], 0, 1), 0) == (True, "")
        assert verify._matches_direct(form, ([5], 3, 7), 0) == (True, "")


# a bare polynomial; weights 0, 3 and 5 only; weights 1, 2 and 4, with a
# depth past n for small n
FILL_FORMS = (
    ClosedForm({(): x ** 3 / 7 - 2}),
    ClosedForm(
        {
            (): Fraction(1, 3),
            (3,): x - 1,
            (2, 1): -x * x,
            (1, 3, 1): Fraction(5, 6),
            (5,): 2 * x,
        }
    ),
    ClosedForm({(1,): x / 2, (2,): -x, (1, 1): Fraction(3, 4), (1, 1, 1, 1): x * x}),
)
FILL_N = 60
SCATTERED = (37, 3, 60, 0, 11, 59, 1, 24)


def fill_reads(form):
    """Each way of reading a form's values, as (name, read): scattered
    points, a subrange with lo > 0, and everything up to FILL_N."""
    return {
        "points": lambda: [(n, form.eval(n)) for n in SCATTERED],
        "subrange": lambda: [
            (n, Fraction(*r)) for n, r in zip(range(17, 46), form._ratios(17, 45))
        ],
        "values": lambda: list(enumerate(form.values(FILL_N))),
    }


def horner_numerators(form, lo, hi, top):
    """_numerators(lo, hi, top) as read before the oracle lifted its
    columns: per weight w, S_w sums each term's column times H_n(comp) * L**w,
    and the S_w combine by Horner's scheme in L = lcm(1..n) up to top."""
    if not form._terms:
        return [0] * (hi + 1 - lo), 1
    den = math.lcm(*[poly._den for poly in form._terms.values()])
    lcms = oracle._lcm_powers(lo, hi, 1)
    sums = {}
    for comp, poly in form._terms.items():
        col = _column(poly._ints, den // poly._den, lo, hi + 1 - lo)
        col = list(map(mul, col, oracle._scaled(lo, hi, comp, sum(comp))))
        w = sum(comp)
        sums[w] = list(map(add, sums[w], col)) if w in sums else col
    acc = sums[min(sums)]
    for w in range(min(sums) + 1, top + 1):
        acc = list(map(mul, acc, lcms))
        if w in sums:
            acc = list(map(add, acc, sums[w]))
    return acc, den


LIFT_FORMS = (
    *forms_of_degree(3),
    *FILL_FORMS,
    reduce(4, (2, 1)),
    sum_power(Polynomial((2, -5, 3)), 2),
    ClosedForm(),
)
# full ranges from 0, subranges with lo > 0 and single points
LIFT_RANGES = ((0, 80), (0, 5), (1, 80), (37, 60), (0, 0), (7, 7), (80, 80))


@pytest.mark.parametrize("form", LIFT_FORMS)
def test_lifted_numerators_match_the_horner_reference(form):
    for top in range(form._weight, form._weight + 4):
        for reads in (LIFT_RANGES, LIFT_RANGES[::-1]):
            mhsums.clear_caches()
            for lo, hi in reads:
                want = horner_numerators(form, lo, hi, top)
                assert form._numerators(lo, hi, top) == want, (top, lo, hi)


def test_points_leave_no_lifted_column():
    # eval(n) and table rows lift their own points; only reads from 0, as
    # values and verify make, keep a lifted column
    mhsums.clear_caches()
    forms = [reduce(p, comp) for p, comp in ((0, (1,)), (3, (2, 1)), (6, (1, 1, 1)))]
    for form in forms:
        assert min(map(sum, form._terms)) < form._weight  # some term is lifted
        for n in (1, 40, 97):
            assert form.eval(n) == reference_value(form, n)
    table = mhsums.run_table(2, 3, 40)
    assert table.count(",true\n") == len(table.splitlines()) - 1
    assert oracle._lifted == {}
    for form in forms:
        form.values(40)
    assert oracle._lifted


@pytest.mark.parametrize(
    "order",
    [
        ("points", "values", "subrange"),
        ("values", "points", "subrange"),
        ("subrange", "points", "values"),
    ],
)
def test_scaled_tables_in_any_fill_order(order):
    want = [[reference_value(f, n) for n in range(FILL_N + 1)] for f in FILL_FORMS]
    mhsums.clear_caches()
    for form, values in zip(FILL_FORMS, want):
        reads = fill_reads(form)
        for name in order:
            assert all(value == values[n] for n, value in reads[name]()), name


def test_threads_fill_the_same_scaled_tables():
    want = [[reference_value(f, n) for n in range(FILL_N + 1)] for f in FILL_FORMS]
    mhsums.clear_caches()
    bad = []
    orders = (
        ("points", "subrange", "values"),
        ("values", "subrange", "points"),
        ("subrange", "values", "points"),
    )
    barrier = threading.Barrier(len(orders))

    def run(order):
        barrier.wait()
        try:
            for _ in range(3):
                for form, values in zip(FILL_FORMS, want):
                    reads = fill_reads(form)
                    for name in order:
                        if any(value != values[n] for n, value in reads[name]()):
                            bad.append((order, name))
        except Exception as exc:  # a thread's error must fail the test
            bad.append((order, repr(exc)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, mid-fill
    try:
        threads = [threading.Thread(target=run, args=(order,)) for order in orders]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert bad == []


# lcm(1..m) and r_m = lcm(1..m) / lcm(1..m-1) for m <= 5000, with r_0 = 1
RUNNING = list(itertools.accumulate(range(1, 5001), math.lcm, initial=1))
STEPS = [1] + [b // a for a, b in zip(RUNNING, RUNNING[1:])]


def test_lcm_upto_is_the_running_lcm():
    assert [_lcm_upto(n) for n in range(400)] == RUNNING[:400]
    mhsums.clear_caches()
    assert oracle._steps_upto(5000)[:5001] == STEPS
    # out of order, across the sieve's growth: what is stored never changes
    mhsums.clear_caches()
    for n in (1000, 3, 257, 4097):
        steps = oracle._steps_upto(n)
        assert steps[: n + 1] == STEPS[: n + 1], n
        assert _lcm_upto(n) == RUNNING[n], n
    assert steps == STEPS[: len(steps)] and steps is oracle._steps_upto(0)


def test_threads_grow_one_sieve():
    mhsums.clear_caches()
    bad = []
    stops = (range(0, 5001, 3), range(1, 5001, 5), range(2, 5001, 7))
    barrier = threading.Barrier(len(stops))

    def grow(ns):
        barrier.wait()
        for n in ns:
            if oracle._steps_upto(n)[: n + 1] != STEPS[: n + 1]:
                bad.append(("steps", n))
            if _lcm_upto(n) != RUNNING[n]:
                bad.append(("lcm", n))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, mid-growth
    try:
        threads = [threading.Thread(target=grow, args=(ns,)) for ns in stops]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert bad == []
    assert oracle._steps_upto(5000)[:5001] == STEPS


def test_arithmetic():
    doubled = SAMPLE + SAMPLE
    assert doubled == SAMPLE.scale(2)
    assert (SAMPLE - SAMPLE).terms == ()
    assert (-SAMPLE).coefficient((2,)) == -x
    assert SAMPLE.scale(x).coefficient((1, 1)) == 2 * x * x


def test_scale_by_zero_empties():
    for zero in (0, Fraction(0), Polynomial.zero()):
        assert SAMPLE.scale(zero) == ClosedForm({})
        assert SAMPLE.scale(zero).terms == ()


def test_from_combination():
    cf = ClosedForm.from_combination({(1, 1): Fraction(2), (2,): Fraction(1)})
    assert cf.coefficient((1, 1)) == Polynomial.constant(2)
    assert cf.coefficient((2,)) == Polynomial.constant(1)


def test_equality_ignores_zero_entries():
    a = ClosedForm({(1,): x})
    b = ClosedForm({(1,): x, (2,): Polynomial.zero()})
    assert a == b
    assert not a == ClosedForm({(1,): 2 * x})


def test_unhashable():
    with pytest.raises(TypeError):
        hash(SAMPLE)


def test_render_text_golden():
    assert SAMPLE.render("text") == "2*n - (2*n + 1)*H(1) + n*H(2) + 2*n*H(1,1)"


def test_render_text_edge_cases():
    assert ClosedForm({}).render("text") == "0"
    assert ClosedForm({(2, 1): 1}).render("text") == "H(2,1)"
    assert ClosedForm({(2, 1): -1}).render("text") == "-H(2,1)"
    assert ClosedForm({(1,): -x}).render("text") == "-n*H(1)"
    cf = ClosedForm({(): -(x ** 2) / 4 - 3 * x / 4, (1,): (x ** 2 + x) / 2})
    assert cf.render("text") == "-1/4*n^2 - 3/4*n + (1/2*n^2 + 1/2*n)*H(1)"
    cf = ClosedForm({(1,): 1, (2, 1): -(x ** 2 + x) / 2})
    assert cf.render("text") == "H(1) - (1/2*n^2 + 1/2*n)*H(2,1)"
    assert ClosedForm({(): -x, (1,): -x - 1}).render("text") == "-n - (n + 1)*H(1)"
    assert ClosedForm({(): Fraction(-3, 4)}).render("text") == "-3/4"
    assert ClosedForm({(2,): Fraction(-3, 4)}).render("text") == "-3/4*H(2)"
    assert ClosedForm({(1,): 1}).render("text") == "H(1)"
    assert ClosedForm({(): 5}).render("text") == "5"


def test_render_latex_golden():
    cf = ClosedForm({(1,): (x ** 2 + x) / 2, (2, 1): -x})
    assert (
        cf.render("latex")
        == r"\left(\frac{1}{2}n^{2}+\frac{1}{2}n\right)H_n - nH_n(2,1)"
    )


def test_render_latex_edge_cases():
    assert ClosedForm({}).render("latex") == "0"
    cf = ClosedForm({(1,): 1, (2, 1): -(x ** 2 + x) / 2})
    assert (
        cf.render("latex")
        == r"H_n - \left(\frac{1}{2}n^{2}+\frac{1}{2}n\right)H_n(2,1)"
    )
    cf = ClosedForm({(): -x, (1,): -x - 1})
    assert cf.render("latex") == r"-n - \left(n+1\right)H_n"
    assert ClosedForm({(): Fraction(-3, 4)}).render("latex") == r"-\frac{3}{4}"
    assert ClosedForm({(2,): Fraction(-3, 4)}).render("latex") == r"-\frac{3}{4}H_n(2)"
    assert ClosedForm({(1,): 1}).render("latex") == "H_n"
    assert ClosedForm({(1,): -1}).render("latex") == "-H_n"
    assert ClosedForm({(): 5}).render("latex") == "5"


def _pinned_forms():
    yield from (
        reduce(p, comp)
        for p in range(8)
        for depth in range(4)
        for comp in itertools.product(range(1, 6), repeat=depth)
        if sum(comp) <= 5
    )
    weights = [Polynomial.constant(1), x, 3 * x ** 2 - 5 * x + 2, (x - 1) ** 3 / 2]
    for F in weights:
        for t in range(4):
            yield sum_power(F, t)
            yield sum_power_shifted(F, t)
        for factors in ([(1, 1), (2, 1)], [(2, 2)], [(1, 2), (3, 1)]):
            yield sum_product(F, factors)


def test_renders_are_pinned():
    digest = hashlib.sha256()
    for form in _pinned_forms():
        for fmt in ("text", "latex", "json"):
            digest.update(form.render(fmt).encode() + b"\n")
    assert digest.hexdigest() == (
        "1b6b1308c72df576a3955ffe976433bd622b163419949e3f4183eb11357c8ae3"
    )


def test_render_unknown_format():
    with pytest.raises(ValueError):
        SAMPLE.render("html")


def test_json_schema():
    obj = json.loads(SAMPLE.render("json"))
    assert set(obj) == {"terms"}
    first = obj["terms"][0]
    assert first["composition"] == []
    assert first["coeff"] == [[0, 1], [2, 1]]
    for term in obj["terms"]:
        for num, den in term["coeff"]:
            assert isinstance(num, int) and isinstance(den, int) and den >= 1


def test_json_round_trip():
    again = ClosedForm.from_json(SAMPLE.to_json())
    assert again == SAMPLE
    assert again.render("json") == SAMPLE.render("json")


def json_corpus():
    """Closed forms whose JSON the one-pass writer must get right."""
    return [
        ClosedForm(),  # {"terms": []}
        ClosedForm({(): Polynomial((Fraction(1, 2), 0, 3))}),  # a bare polynomial
        ClosedForm({(1,): Polynomial((-1, -3)), (2, 1): Polynomial((0, -7))}),
        ClosedForm({(3,): Polynomial((Fraction(-1, 6), Fraction(-5, 4)))}),
        ClosedForm({(): x ** 3, (1, 1, 1): Polynomial((2**80, Fraction(-1, 3**40)))}),
        SAMPLE,
        reduce(1, (1,)),
        reduce(4, (2, 1)),
        sum_product(Polynomial((1, -2, 3)), [(1, 2), (2, 1)]),
        sum_power_shifted(Polynomial((Fraction(1, 2), 0, -1)), 3),
    ]


def test_json_writer_matches_the_encoder():
    for form in json_corpus():
        text = form.to_json()
        assert text == json.dumps(form.to_json_obj())
        assert form.render("json") == text
        assert ClosedForm.from_json(text) == form
    assert ClosedForm().to_json() == '{"terms": []}'


def test_json_writer_with_a_coefficient_above_the_digit_guard(capsys):
    # 5,001 digits: main lifts the int-to-str guard for its call, so the
    # command writes it; outside main, to_json raises as json.dumps does
    digits = "1" + "0" * 5000
    argv = ["sum", "--poly", digits, "--power", "0", "--format", "json"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out == '{"terms": [{"composition": [], "coeff": [[0, 1], [%s, 1]]}]}\n' % digits
    form = ClosedForm({(): Polynomial((0, 10**5000))})
    if not hasattr(sys, "get_int_max_str_digits"):
        return  # no guard in this interpreter
    with pytest.raises(ValueError) as want:
        json.dumps(form.to_json_obj())
    with pytest.raises(ValueError) as got:
        form.to_json()
    assert str(got.value) == str(want.value)


def test_copy_and_pickle():
    # rebuilt from the terms, not through the slots' __setattr__
    for form in json_corpus():
        for again in (copy.copy(form), copy.deepcopy(form), pickle.loads(pickle.dumps(form))):
            assert type(again) is ClosedForm
            assert again == form and again.to_json() == form.to_json()
            with pytest.raises(TypeError):  # unhashable, as the original
                hash(again)
            with pytest.raises(AttributeError):
                again._terms = {}


@pytest.mark.parametrize(
    "text",
    [
        # non-integers, strings, booleans and an overflowing float
        '{"terms": [{"composition": [1.7], "coeff": [[1.5, 2]]}]}',
        '{"terms": [{"composition": [1], "coeff": [["3", 2]]}]}',
        '{"terms": [{"composition": [true], "coeff": [[1, 2]]}]}',
        '{"terms": [{"composition": [1], "coeff": [[1e400, 1]]}]}',
        '{"terms": [{"composition": [1], "coeff": [[1, 0]]}]}',
        '{"terms": [{"composition": [0], "coeff": [[1, 1]]}]}',
        '{"terms": [{"composition": [1], "coeff": [[1, 2, 3]]}]}',
        '{"terms": [{"composition": [1]}]}',
        '{"terms": 5}',
        '{"terms": [{"composition": [1], "coeff": [[1, 1]]},'
        ' {"composition": [1], "coeff": [[2, 1]]}]}',
        "[" * 100_000,
        "[1]",
        "{",
    ],
)
def test_from_json_rejects_malformed(text):
    with pytest.raises(ValueError, match="^malformed closed-form JSON: "):
        ClosedForm.from_json(text)


# ------------------------------------------------------------ accumulation


def coefficient_map(form):
    """{composition: ascending coefficient tuple} of a closed form."""
    return {comp: poly.coeffs for comp, poly in form.terms}


def reference_fold(pairs):
    """sum of c * form over (form, c) pairs, in plain dict arithmetic, in
    the shape of ``coefficient_map``; c is a scalar or a Polynomial."""
    total = {}
    for form, c in pairs:
        factor = c.coeffs if isinstance(c, Polynomial) else (c,)
        for comp, poly in form.terms:
            row = total.setdefault(comp, {})
            for i, a in enumerate(poly.coeffs):
                for j, b in enumerate(factor):
                    row[i + j] = row.get(i + j, 0) + a * b
    out = {}
    for comp, row in total.items():
        coeffs = [Fraction(row.get(i, 0)) for i in range(max(row, default=-1) + 1)]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        if coeffs:
            out[comp] = tuple(coeffs)
    return out


small = st.fractions(min_value=-4, max_value=4, max_denominator=6)
polys = st.lists(small, max_size=4).map(Polynomial)
forms = st.dictionaries(
    st.lists(st.integers(1, 3), max_size=3).map(tuple), polys, max_size=4
).map(ClosedForm)
factors = st.one_of(st.integers(-3, 3), small, polys)


@given(st.lists(st.tuples(forms, factors), max_size=5))
def test_accumulation_matches_reference_fold(pairs):
    want = reference_fold(pairs)
    acc = _Accumulator()
    for form, c in pairs:
        acc.add_form(form, c)
    assert coefficient_map(acc.freeze()) == want
    folded = ClosedForm()
    for form, c in pairs:
        folded = folded + form.scale(c)
    assert coefficient_map(folded) == want
    assert coefficient_map(folded - folded) == {}


def test_accumulator_drops_cancelled_rows_and_trims():
    acc = _Accumulator()
    acc.add((1,), Polynomial((1, 2, 3)))
    acc.add((1,), Polynomial((0, 0, 3)), -1)
    acc.add((2,), Polynomial((5,)))
    acc.add((2,), Polynomial((5,)), Fraction(-1))
    acc.add((3,), Polynomial(()))
    assert coefficient_map(acc.freeze()) == {(1,): (1, 2)}
    assert ClosedForm([((1,), x), ((1,), -x)]) == ClosedForm({})
    assert coefficient_map(ClosedForm([((1,), x + 1), ((1,), -x)])) == {(1,): (1,)}


def test_rejects_inexact_coefficients():
    with pytest.raises(TypeError):
        ClosedForm({(1,): 0.5})
    with pytest.raises(TypeError):
        SAMPLE.scale(0.5)
    with pytest.raises(TypeError):
        ClosedForm({}).scale("n")


def test_accumulator_rows_over_different_denominators():
    acc = _Accumulator()
    acc.add_ints((1,), [1, 2], 6)
    acc.add_ints((1,), [3], 3, Fraction(5, 7))  # 5/7 * 1, over 21
    acc.add_ints((1,), [0, 0, 1], 4, -2)
    acc.add((1,), Polynomial((Fraction(1, 10), 0, Fraction(3, 5))), x + Fraction(1, 2))
    want = (
        Polynomial((Fraction(1, 6), Fraction(1, 3)))
        + Fraction(5, 7)
        - x * x / 2
        + Polynomial((Fraction(1, 10), 0, Fraction(3, 5))) * (x + Fraction(1, 2))
    )
    assert acc.freeze() == ClosedForm({(1,): want})
    # a row is brought to a new denominator only when the old one is not a
    # multiple of it: 6 stays for 3 and 2, and becomes lcm(6, 4) = 12 for 4
    acc = _Accumulator()
    acc.add_ints((), [1], 6)
    acc.add_ints((), [1], 3)
    acc.add_ints((), [1], 2)
    assert acc._rows[()][0] == 6
    acc.add_ints((), [1], 4)
    assert acc._rows[()][0] == 12
    assert acc.freeze() == ClosedForm({(): Fraction(5, 4)})


def test_accumulator_cancels_across_denominators_and_trims():
    acc = _Accumulator()
    # equal rows over different denominators cancel to a zero row
    acc.add_ints((2,), [2, 4], 6)
    acc.add_ints((2,), [1, 2], 3, -1)
    # the top coefficients cancel, so the row is trimmed to degree 1
    acc.add_ints((3,), [1, 1, 3], 5)
    acc.add((3,), Polynomial((0, 0, Fraction(3, 5))), -1)
    acc.add_ints((3,), [0, 0, 0, 7, 1], 2)
    acc.add_ints((3,), [0, 0, 0, 14, 2], 4, -1)
    form = acc.freeze()
    assert coefficient_map(form) == {(3,): (Fraction(1, 5), Fraction(1, 5))}
    assert acc.freeze().coefficient((2,)).is_zero


def test_frozen_coefficients_are_fractions():
    acc = _Accumulator()
    acc.add((1,), Polynomial((1, 0, 3)))  # an interior zero
    acc.add_ints((2,), [4, 0, 0, 2], 2)
    acc.add_ints((), [6], 3)
    acc.add_form(SAMPLE, 3)
    form = acc.freeze()
    coeffs = [c for _, poly in form.terms for c in poly.coeffs]
    assert all(type(c) is Fraction for c in coeffs)
    assert coefficient_map(form)[(2,)] == (2, 3, 0, 1)
    assert form.coefficient(()) == 6 * x + 2


def test_accumulator_rejects_floats():
    acc = _Accumulator()
    with pytest.raises(TypeError):
        acc.add((1,), 0.5)
    with pytest.raises(TypeError):
        acc.add((1,), Polynomial((1,)), 0.5)
    with pytest.raises(TypeError):
        acc.add_form(SAMPLE, 0.5)
