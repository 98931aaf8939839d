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
