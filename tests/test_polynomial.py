import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mhsums.polynomial import Polynomial, discrete_sum

x = Polynomial.variable()

coeff_lists = st.lists(st.fractions(), max_size=8)
polys = coeff_lists.map(Polynomial)
points = st.integers(min_value=-30, max_value=30)


def test_trailing_zeros_trimmed():
    assert Polynomial((1, 2, 0, 0)).coeffs == (Fraction(1), Fraction(2))
    assert Polynomial((0,)).coeffs == ()
    assert Polynomial(()).degree == -1


def test_constructors():
    assert Polynomial.zero().is_zero
    assert Polynomial.constant(Fraction(3, 2)).eval(17) == Fraction(3, 2)
    assert Polynomial.variable().eval(9) == 9
    assert Polynomial.monomial(3, 2).eval(2) == 16


def test_coefficient_out_of_range_is_zero():
    p = Polynomial((1, 2))
    assert p.coefficient(5) == 0
    assert p.coefficient(1) == 2


def test_immutable():
    with pytest.raises(AttributeError):
        x.coeffs = (Fraction(1),)


@given(polys, polys, points)
def test_add_matches_pointwise(p, q, n):
    assert (p + q).eval(n) == p.eval(n) + q.eval(n)


@given(polys, polys, points)
def test_mul_matches_pointwise(p, q, n):
    assert (p * q).eval(n) == p.eval(n) * q.eval(n)


@given(polys, polys, points)
def test_neg_and_sub(p, q, n):
    assert (-p).eval(n) == -p.eval(n)
    assert (p - q).eval(n) == p.eval(n) - q.eval(n)
    assert (p - p).is_zero


@given(polys, st.fractions(), points)
def test_scalar_ops(p, c, n):
    assert (p + c).eval(n) == p.eval(n) + c
    assert (c + p).eval(n) == c + p.eval(n)
    assert (c * p).eval(n) == c * p.eval(n)
    assert (c - p).eval(n) == c - p.eval(n)
    if c:
        assert (p / c).eval(n) == p.eval(n) / c


def test_zero_factors_give_zero():
    for p in (Polynomial.zero(), Polynomial.constant(3), 2 * x**3 - x):
        for zero in (0, Fraction(0), Polynomial.zero()):
            assert (p * zero).coeffs == ()
            assert (zero * p).coeffs == ()


@pytest.mark.parametrize("bad", [1.5, "m"])
def test_rejects_inexact_and_foreign_operands(bad):
    p = x + 1
    for op in (
        lambda: p + bad,
        lambda: bad + p,
        lambda: p - bad,
        lambda: bad - p,
        lambda: p * bad,
        lambda: bad * p,
        lambda: p.shift(bad),
    ):
        with pytest.raises(TypeError):
            op()


def test_division_by_zero_scalar():
    with pytest.raises(ZeroDivisionError):
        x / 0


@given(polys, st.integers(min_value=0, max_value=5), points)
def test_pow(p, k, n):
    assert (p ** k).eval(n) == p.eval(n) ** k


small_polys = st.lists(
    st.fractions(min_value=-20, max_value=20, max_denominator=30), max_size=6
).map(Polynomial)


@given(small_polys, st.integers(min_value=0, max_value=12))
def test_pow_matches_repeated_multiplication(p, k):
    # repeated squaring against k products; the zero polynomial and k = 0
    # included
    want = Polynomial.constant(1)
    for _ in range(k):
        want = want * p
    got = p ** k
    assert got.coeffs == want.coeffs
    assert all(type(c) is Fraction for c in got.coeffs)


def test_pow_edge_cases():
    zero = Polynomial.zero()
    assert zero ** 0 == Polynomial.constant(1)
    assert (zero ** 1).is_zero and (zero ** 5).is_zero
    assert (x ** 0).coeffs == (Fraction(1),)
    assert (x ** 13).coeffs == (Fraction(0),) * 13 + (Fraction(1),)
    assert (x - 1) ** 2 == x * x - 2 * x + 1


def test_pow_of_monomials_matches_repeated_multiplication():
    # a row with one nonzero coefficient is raised in one step; 0**0 is 1
    zero = Polynomial.zero()
    monomials = [zero, Polynomial.constant(1), Polynomial.constant(-3), x]
    monomials += [Polynomial.monomial(j, c) for j in (0, 1, 4, 7)
                  for c in (2, -1, Fraction(-5, 12), Fraction(7, 3))]
    for p in monomials:
        for k in range(9):
            want = Polynomial.constant(1)
            for _ in range(k):
                want = want * p
            got = p ** k
            assert got == want, (p, k)
            assert (got._den, got._ints) == (want._den, want._ints)
    assert zero ** 0 == Polynomial.constant(1)
    assert Polynomial.monomial(5, Fraction(-2, 3)) ** 0 == Polynomial.constant(1)
    assert (Polynomial.monomial(2, Fraction(-2, 3)) ** 3).coeffs == (
        (Fraction(0),) * 6 + (Fraction(-8, 27),)
    )


def test_pow_negative_rejected():
    with pytest.raises(ValueError):
        x ** -1


@given(polys, st.fractions(), points)
def test_shift(p, c, n):
    assert p.shift(c).eval(n) == p.eval(n + c)


def fraction_horner(p, v):
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * v + c
    return acc


@given(polys, st.one_of(points, st.fractions()))
def test_eval_matches_fraction_horner(p, v):
    got = p.eval(v)
    assert isinstance(got, Fraction)
    assert got == fraction_horner(p, Fraction(v))


def test_eval_edge_cases():
    assert Polynomial().eval(5) == 0
    assert Polynomial().eval(Fraction(1, 3)) == 0
    assert Polynomial.constant(Fraction(-2, 3)).eval(Fraction(7, 5)) == Fraction(-2, 3)
    p = Fraction(1, 6) * x**3 - Fraction(3, 4) * x + 2
    assert p.eval(-4) == Fraction(-17, 3)
    assert p.eval(Fraction(4, 1)) == p.eval(4) == Fraction(29, 3)
    assert p.eval(Fraction(-1, 2)) == Fraction(113, 48)
    with pytest.raises(TypeError):
        p.eval(0.5)


def test_derivative():
    p = 3 * x ** 2 - 5 * x + 2
    assert p.derivative() == 6 * x - 5
    assert Polynomial.constant(7).derivative().is_zero


def test_divide_x():
    assert (x ** 2 + x).divide_x() == x + 1
    with pytest.raises(ValueError):
        (x + 1).divide_x()


def test_sum_builtin_uses_radd():
    assert sum([x, x ** 2, Polynomial.constant(1)]) == x ** 2 + x + 1


def test_text_rendering():
    assert (3 * x ** 2 - 5 * x + 2).text("m") == "3*m^2 - 5*m + 2"
    assert (x / 2).text() == "1/2*n"
    assert Polynomial.zero().text() == "0"
    assert (-x).text() == "-n"
    assert (x ** 2 - 1).text() == "n^2 - 1"


def test_latex_rendering():
    assert (x / 2).latex() == r"\frac{1}{2}n"
    assert (x ** 2).latex() == "n^{2}"
    assert (-x / 2 + 1).latex() == r"-\frac{1}{2}n+1"
    assert Polynomial.zero().latex() == "0"
    assert Polynomial.constant(7).latex() == "7"
    assert Polynomial.constant(-7).latex() == "-7"


def test_discrete_sum_known_values():
    # partial sums of m^2 up to n
    s = discrete_sum(x ** 2)
    assert s == x * (x + 1) * (2 * x + 1) / 6


@given(st.lists(st.fractions(), max_size=5).map(Polynomial))
def test_discrete_sum_telescopes(F):
    S = discrete_sum(F)
    assert S.eval(0) == 0
    for n in range(1, 12):
        assert S.eval(n) - S.eval(n - 1) == F.eval(n)


@given(st.lists(st.fractions(), max_size=5).map(Polynomial))
def test_discrete_sum_degree(F):
    S = discrete_sum(F)
    if F.is_zero:
        assert S.is_zero
    else:
        assert S.degree == F.degree + 1


@given(st.lists(st.fractions(max_denominator=50), max_size=7).map(Polynomial))
def test_discrete_sum_coefficients_are_fractions(F):
    # built over one denominator and handed to Polynomial without its checks:
    # every coefficient a Fraction, no trailing zero
    coeffs = discrete_sum(F).coeffs
    assert all(type(c) is Fraction for c in coeffs)
    assert not coeffs or coeffs[-1] != 0


def test_hash_agrees_with_equality():
    # a constant compares equal to its value, so it hashes like it
    for value in (0, 1, -7, 2**100, Fraction(3, 4), Fraction(-5, 2)):
        p = Polynomial.constant(value)
        assert p == value and hash(p) == hash(value)
        assert len({value, p}) == 1
    assert len({1, Polynomial.constant(1)}) == 1
    assert len({0, Polynomial.zero()}) == 1
    # equal polynomials built by different routes hash equal
    a, b = (x + 1) ** 2, x * x + 2 * x + Fraction(2, 2)
    assert a == b and hash(a) == hash(b)
    c = x / 3 + Fraction(1, 6)
    assert hash(c) == hash(Polynomial((Fraction(1, 6), Fraction(1, 3))))


@pytest.mark.parametrize(
    "p",
    [Polynomial(), Polynomial((1, 2)), Polynomial((Fraction(-7, 6), 0, Fraction(3, 4))),
     Polynomial.constant(2**200), x ** 30],
)
def test_copy_and_pickle(p):
    # rebuilt from the row, not through the slots' __setattr__
    for again in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert type(again) is Polynomial
        assert again == p and hash(again) == hash(p)
        assert (again._den, again._ints) == (p._den, p._ints)
        with pytest.raises(AttributeError):
            again._den = 2


@given(polys, polys)
def test_equal_polynomials_hash_equal(p, q):
    for same in (Polynomial(p.coeffs), p + q - q, (p * 3) / 3, p.shift(2).shift(-2)):
        assert same == p and hash(same) == hash(p)


# ---------------------------------------------- the representation invariant


def trimmed(cs):
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def ref_add(a, b, sign=1):
    n = max(len(a), len(b))
    a, b = list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b))
    return trimmed(u + sign * v for u, v in zip(a, b))


def ref_mul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return trimmed(out)


def ref_eval(cs, v):
    return sum((c * Fraction(v) ** i for i, c in enumerate(cs)), Fraction(0))


def ref_interpolate(points):
    """Ascending coefficients of the polynomial through ``points``, by
    Lagrange's formula."""
    out = (Fraction(0),)
    for i, (xi, yi) in enumerate(points):
        basis, scale = (Fraction(1),), Fraction(yi)
        for j, (xj, _) in enumerate(points):
            if j != i:
                basis = ref_mul(basis, (-xj, 1))
                scale /= xi - xj
        out = ref_add(out, ref_mul(basis, (scale,)))
    return out


def assert_canonical(p, want):
    den, ints = p._den, p._ints
    assert type(den) is int and den > 0
    assert type(ints) is tuple and all(type(c) is int for c in ints)
    assert math.gcd(den, *ints) == 1
    assert not ints or ints[-1] != 0
    assert p.coeffs == trimmed(want)
    assert all(type(c) is Fraction for c in p.coeffs)


rationals = st.fractions(min_value=-30, max_value=30, max_denominator=40)
rows = st.lists(st.one_of(st.just(0), st.integers(-50, 50), rationals), max_size=6)


@given(rows, rows, rationals, st.integers(0, 4))
def test_every_operation_keeps_the_representation_canonical(a, b, c, k):
    p, q = Polynomial(a), Polynomial(b)
    a, b = trimmed(a), trimmed(b)
    assert_canonical(p, a)
    assert_canonical(q, b)
    assert_canonical(p + q, ref_add(a, b))
    assert_canonical(p - q, ref_add(a, b, -1))
    assert_canonical(c - p, ref_add((c,), a, -1))
    assert_canonical(-p, ref_add((), a, -1))
    assert_canonical(p * q, ref_mul(a, b))
    assert_canonical(p * c, ref_mul(a, (c,)))
    if c:
        assert_canonical(p / c, ref_mul(a, (1 / c,)))
    power = (Fraction(1),)
    for _ in range(k):
        power = ref_mul(power, a)
    assert_canonical(p**k, power)
    shifted = ()
    for i, ci in enumerate(a):
        term = (ci,)
        for _ in range(i):
            term = ref_mul(term, (c, 1))
        shifted = ref_add(shifted, term)
    assert_canonical(p.shift(c), shifted)
    assert_canonical(p.derivative(), [i * ci for i, ci in enumerate(a)][1:])
    if not a or a[0] == 0:
        assert_canonical(p.divide_x(), a[1:])
    # the sum has degree deg(p) + 1, so deg(p) + 2 = len(a) + 1 points fix it
    partial = [Fraction(0)]
    for m in range(1, len(a) + 1):
        partial.append(partial[-1] + ref_eval(a, m))
    assert_canonical(discrete_sum(p), ref_interpolate(list(enumerate(partial))))
    assert p.eval(c) == ref_eval(a, c)
