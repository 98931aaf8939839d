"""Exact dense univariate polynomial arithmetic over the rationals.

Coefficients are ``fractions.Fraction`` values stored densely: index ``i``
holds the coefficient of ``x**i``.  Trailing zeros are trimmed on
construction, so equality is plain structural comparison and the zero
polynomial has an empty coefficient tuple (degree -1 by convention).  Every
operation is exact; nothing in this package ever rounds.  Coefficient
arithmetic, here and in the closed-form accumulator, runs through one
multiply-add kernel, ``_muladd``.  Where the time goes it runs on int
numerators over one denominator (``_integer_rows``, ``_muladd_over``): the
reducer's chain and power sums, the sums' levels, the closed-form
accumulator and ``discrete_sum``.  Such a row becomes one ``Fraction`` per
coefficient at the end, and a ``Polynomial`` through ``Polynomial._of``,
which skips the public constructor's type checks.
Every evaluation, here and of closed forms, runs Horner's scheme on integer
numerators over one common denominator (``_integer_rows``, ``_horner_sum``),
against weights given as int numerator and denominator lists, and gives an
int pair; the public methods build one ``Fraction`` per value from it.  All
text and LaTeX output, here, in closed forms and on the command line, is
written from one format table, ``_FORMATS``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Union

__all__ = ["Polynomial", "Scalar", "discrete_sum"]

Scalar = Union[int, Fraction]


def _frac(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an int or Fraction, got {type(value).__name__}")


class Polynomial:
    """Immutable dense polynomial with exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def _of(cls, coeffs: "list[Fraction]") -> "Polynomial":
        """The polynomial with ascending ``coeffs``, a list of ``Fraction``
        values the package built itself: no type checks; trailing zeros are
        trimmed."""
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        out = object.__new__(cls)
        object.__setattr__(out, "coeffs", tuple(coeffs))
        return out

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Polynomial is immutable")

    # ---------------------------------------------------------------- basics

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def constant(cls, value: Scalar) -> "Polynomial":
        return cls((value,))

    @classmethod
    def variable(cls) -> "Polynomial":
        return cls((0, 1))

    @classmethod
    def monomial(cls, degree: int, coeff: Scalar = 1) -> "Polynomial":
        if degree < 0:
            raise ValueError("monomial degree must be nonnegative")
        return cls((0,) * degree + (coeff,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, i: int) -> Fraction:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Polynomial.constant(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("Polynomial", self.coeffs))

    def __repr__(self) -> str:
        return f"Polynomial({self.text('x')!r})"

    # ------------------------------------------------------------ arithmetic

    def __add__(self, other: "Polynomial | Scalar") -> "Polynomial":
        cs = _coefficients(other)
        if cs is None:
            return NotImplemented
        return Polynomial(_muladd(list(self.coeffs), cs, _ONE))

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(_muladd([], self.coeffs, _MINUS_ONE))

    def __sub__(self, other: "Polynomial | Scalar") -> "Polynomial":
        cs = _coefficients(other)
        if cs is None:
            return NotImplemented
        return Polynomial(_muladd(list(self.coeffs), cs, _MINUS_ONE))

    def __rsub__(self, other: "Polynomial | Scalar") -> "Polynomial":
        cs = _coefficients(other)
        if cs is None:
            return NotImplemented
        return Polynomial(_muladd(list(cs), self.coeffs, _MINUS_ONE))

    def __mul__(self, other: "Polynomial | Scalar") -> "Polynomial":
        cs = _coefficients(other)
        if cs is None:
            return NotImplemented
        return Polynomial(_muladd([], self.coeffs, cs))

    __rmul__ = __mul__

    def __truediv__(self, other: Scalar) -> "Polynomial":
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        f = _frac(other)
        if f == 0:
            raise ZeroDivisionError("division of a polynomial by zero")
        return self * (Fraction(1) / f)

    def __pow__(self, n: int) -> "Polynomial":
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        out, square = Polynomial.constant(1), self
        while n:  # repeated squaring: a squaring per bit of n, a product per 1 bit
            if n & 1:
                out = out * square
            n >>= 1
            if n:
                square = square * square
        return out

    # ------------------------------------------------------------ operations

    def eval(self, x: Scalar) -> Fraction:
        """Value at x by Horner's scheme: on ints over one denominator
        (``_horner_sum``) when x is an integer, on ``Fraction`` values
        otherwise."""
        if not isinstance(x, int):
            x = _frac(x)
            if x.denominator != 1:
                acc = Fraction(0)
                for c in reversed(self.coeffs):
                    acc = acc * x + c
                return acc
            x = x.numerator
        den, rows = _integer_rows((self.coeffs,))
        return Fraction(*_horner_sum(rows, _ONE, _ONE, x, den))

    def shift(self, c: Scalar) -> "Polynomial":
        """The composed polynomial x |-> P(x + c), by Horner's rule in x + c."""
        step = (_frac(c), 1)
        row: list = []
        for coeff in reversed(self.coeffs):
            row = _muladd([coeff], row, step)
        return Polynomial(row)

    def derivative(self) -> "Polynomial":
        return Polynomial(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    def divide_x(self) -> "Polynomial":
        """Exact quotient P(x) / x; requires a zero constant term."""
        if self.is_zero:
            return Polynomial()
        if self.coeffs[0] != 0:
            raise ValueError("not divisible by x")
        return Polynomial(self.coeffs[1:])

    # ------------------------------------------------------------- rendering

    def text(self, var: str = "n") -> str:
        """Plain-text form, descending powers, e.g. ``3*n^2 - 5*n + 2``."""
        return _render(self.coeffs, var, "text")

    def latex(self, var: str = "n") -> str:
        return _render(self.coeffs, var, "latex")

    __str__ = text


# How each format writes a rational that is not an integer, a power of the
# variable, a product, the padding around the sign between two monomials, a
# bracketed factor and the harmonic sum of a composition: all but the product
# and the padding are %-templates.
_FORMATS = {
    "text": ("%d/%d", "%s^%d", "*", " ", "(%s)", "H(%s)"),
    "latex": (r"\frac{%d}{%d}", "%s^{%d}", "", "", r"\left(%s\right)", "H_n(%s)"),
}


def _render(coeffs, var: str, fmt: str) -> str:
    """The polynomial with ascending ``coeffs`` in descending powers of
    ``var``, written in one of the ``_FORMATS``."""
    fraction, power, times, pad, _, _ = _FORMATS[fmt]
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c:
            a = abs(c)
            if a.denominator == 1:
                body = str(a.numerator)
            else:
                body = fraction % (a.numerator, a.denominator)
            if i:
                v = var if i == 1 else power % (var, i)
                body = v if a == 1 else body + times + v
            parts.append(("-" if c < 0 else "+", body))
    return join_signed(parts, pad)


def join_signed(parts: "list[tuple[str, str]]", pad: str = " ") -> str:
    """Join (sign, body) pairs into ``body - body + body``.

    The first sign is written only when negative, and without padding; each
    later sign sits between ``pad`` strings.  No parts give ``"0"``.
    """
    if not parts:
        return "0"
    (sign, body), rest = parts[0], parts[1:]
    head = body if sign == "+" else "-" + body
    return head + "".join(f"{pad}{sign}{pad}{body}" for sign, body in rest)


def _coefficients(value: object) -> "tuple[Scalar, ...] | None":
    """Ascending coefficients of a polynomial or scalar; None for any other
    value.  A scalar is its own one-entry sequence."""
    if isinstance(value, Polynomial):
        return value.coeffs
    if isinstance(value, (int, Fraction)):
        return (value,)
    return None


def _integer_rows(rows) -> "tuple[int, list[list[int]]]":
    """``(D, integer rows)`` of ascending int or ``Fraction`` coefficient
    rows: D is the lcm of every denominator in them, and each row becomes its
    coefficients times D, as ints, still ascending."""
    # lcm of a list, here and in _horner_sum: unpacking a generator builds an
    # oversized tuple and shrinks it, which filled the tuple free lists and
    # raised verify's peak memory by about 1 MB
    den = math.lcm(*[c.denominator for row in rows for c in row])
    return den, [
        [c.numerator * (den // c.denominator) for c in row] for row in rows
    ]


def _horner_sum(rows: "list[list[int]]", nums, dens, x: int, den: int):
    """sum_i P_i(x) * nums[i] / dens[i] for an integer x, as an int pair
    (numerator, denominator > 0), not always in lowest terms.

    Row i holds the ascending integer coefficients of den * P_i
    (``_integer_rows``), and weight i is the int pair nums[i] / dens[i],
    dens[i] > 0.  Horner's scheme runs on ints; each product is brought to
    the lcm L of the weights' denominators, and the pair's denominator is
    L * den.
    """
    lcm = math.lcm(*dens)
    total = 0
    for row, a, b in zip(rows, nums, dens):
        if a:
            acc = 0
            for c in reversed(row):
                acc = acc * x + c
            total += acc * a * (lcm // b)
    return total, lcm * den


_ONE = (1,)
_MINUS_ONE = (-1,)


def _muladd(row: list, a, b) -> list:
    """``row += a * b`` for ascending coefficient sequences; returns ``row``.

    The one loop that adds or multiplies coefficient sequences.  ``row``
    grows as needed; a factor of 1 adds ``a`` without a multiplication, and a
    slot still at 0 takes its term without an addition.
    """
    size = len(a) + len(b) - 1
    if len(row) < size:
        row.extend([0] * (size - len(row)))
    for j, y in enumerate(b):
        if not y:
            continue
        unit = y == 1
        for i, x in enumerate(a, j):
            if x:
                if not unit:
                    x = x * y
                v = row[i]
                row[i] = v + x if v else x
    return row


def _muladd_over(entry: list, a, den: int, factor: int) -> None:
    """``entry += factor * a / den`` for ``entry = [D, row]``, a row of int
    numerators over the denominator D, and ascending ints ``a``.

    The row is brought to lcm(D, den) only when den does not divide D; the
    sum itself is one ``_muladd``.
    """
    D = entry[0]
    if D % den:
        k = den // math.gcd(D, den)
        entry[0] = D = D * k
        entry[1] = [c * k for c in entry[1]]
    _muladd(entry[1], a, (factor * (D // den),))


def discrete_sum(F: Polynomial) -> Polynomial:
    """Summation polynomial S with S(n) = F(1) + ... + F(n); S(0) = 0.

    Works in the binomial-coefficient basis via forward differences of the
    samples F(0), ..., F(d).  This route is deliberately independent of the
    Bernoulli-number route (``mhsums.reducer.faulhaber``); the two are checked
    against each other in the tests.
    """
    d = F.degree
    if d < 0:
        return Polynomial()
    # den * F(0), ..., den * F(d) as ints; the j-th forward difference is
    # divided by (j + 1)!, so the sum is built over den * (d + 1)!
    den, (row,) = _integer_rows(([F.eval(i) for i in range(d + 1)],))
    top = math.factorial(d + 1)
    out = [-row[0] * top]
    falling = [1]  # (x + 1) x ... (x + 2 - j), integer coefficients
    j = 0
    while row:
        # row[0] is the j-th forward difference of den * F at 0, and
        # sum_{m=0..n} C(m, j) telescopes to C(n + 1, j + 1), which is the
        # next falling product over (j + 1)!
        falling = _muladd([], falling, (1 - j, 1))
        if row[0]:
            _muladd(out, falling, (row[0] * (top // math.factorial(j + 1)),))
        row = [b - a for a, b in zip(row, row[1:])]
        j += 1
    den *= top
    return Polynomial._of([Fraction(c, den) for c in out])
