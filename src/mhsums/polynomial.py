"""Exact dense univariate polynomial arithmetic over the rationals.

A ``Polynomial`` is one row of int numerators over one positive
denominator: ``_ints[i] / _den`` is the coefficient of ``x**i``, with no
trailing zero and ``gcd(_den, *_ints) == 1``.  So the representation is
canonical, equality is structural, and the zero polynomial is ``(1, ())``
(degree -1 by convention).  Nothing in this package ever rounds.
``coeffs`` is the public boundary: it builds ``Fraction``s on demand, and
nothing in the package reads it where the time goes.

Arithmetic, ``shift``, ``derivative``, ``discrete_sum`` and the package's
builders of polynomials run on the rows and end in ``_reduced``, which trims
a row and divides out one gcd.  Rows are added and multiplied by one
kernel, ``_muladd``, and evaluated at an integer by one, ``_horner``, on
ints; the public methods build one ``Fraction`` per value.  A
power of a monomial ``c x**j`` is written directly as ``c**k x**(j k)`` over
``den**k``, already in lowest terms; other powers square.  Copies and
pickles rebuild a polynomial from its row.  All
text and LaTeX output, here, in closed forms and on the command line, is
written from one format table, ``_FORMATS``, each coefficient reduced by one
gcd (``_lowest``).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Union

__all__ = ["Polynomial", "Scalar", "discrete_sum"]

Scalar = Union[int, Fraction]


def _ratio(value: Scalar) -> "tuple[int, int]":
    """(numerator, denominator) of an int or ``Fraction``, in lowest terms."""
    if isinstance(value, (int, Fraction)):
        return value.numerator, value.denominator
    raise TypeError(f"expected an int or Fraction, got {type(value).__name__}")


class Polynomial:
    """Immutable dense polynomial with exact rational coefficients."""

    __slots__ = ("_den", "_ints")

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        pairs = [_ratio(c) for c in coeffs]
        while pairs and not pairs[-1][0]:
            pairs.pop()
        # each coefficient is in lowest terms, so no prime of the lcm divides
        # every numerator over it
        den = math.lcm(*[d for _, d in pairs])
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_ints", tuple(n * (den // d) for n, d in pairs))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):
        # copy and pickle rebuild from the row: the default restore of the
        # slots would go through the __setattr__ above
        return _reduced, (self._den, list(self._ints))

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
    def coeffs(self) -> "tuple[Fraction, ...]":
        """The ascending coefficients as ``Fraction``s, built on each read."""
        den = self._den
        return tuple(Fraction(c, den) for c in self._ints)

    @property
    def degree(self) -> int:
        return len(self._ints) - 1

    @property
    def is_zero(self) -> bool:
        return not self._ints

    def coefficient(self, i: int) -> Fraction:
        if 0 <= i < len(self._ints):
            return Fraction(self._ints[i], self._den)
        return Fraction(0)

    def __bool__(self) -> bool:
        return bool(self._ints)

    def __eq__(self, other: object) -> bool:
        row = _row(other)
        if row is None:
            return NotImplemented
        return row == (self._den, self._ints)

    def __hash__(self) -> int:
        # a constant hashes like its value, since it compares equal to it
        ints = self._ints
        if len(ints) > 1:
            return hash((self._den, ints))
        return hash(Fraction(ints[0], self._den)) if ints else 0

    def __repr__(self) -> str:
        return f"Polynomial({self.text('x')!r})"

    # ------------------------------------------------------------ arithmetic

    def __add__(self, other: "Polynomial | Scalar") -> "Polynomial":
        row = _row(other)
        if row is None:
            return NotImplemented
        return _sum(self._den, self._ints, *row, 1)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return _reduced(self._den, [-c for c in self._ints])

    def __sub__(self, other: "Polynomial | Scalar") -> "Polynomial":
        row = _row(other)
        if row is None:
            return NotImplemented
        return _sum(self._den, self._ints, *row, -1)

    def __rsub__(self, other: "Polynomial | Scalar") -> "Polynomial":
        row = _row(other)
        if row is None:
            return NotImplemented
        return _sum(*row, self._den, self._ints, -1)

    def __mul__(self, other: "Polynomial | Scalar") -> "Polynomial":
        row = _row(other)
        if row is None:
            return NotImplemented
        den, ints = row
        return _reduced(self._den * den, _muladd([], self._ints, ints))

    __rmul__ = __mul__

    def __truediv__(self, other: Scalar) -> "Polynomial":
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        num, den = _ratio(other)
        if num == 0:
            raise ZeroDivisionError("division of a polynomial by zero")
        if num < 0:
            num, den = -num, -den
        return _reduced(self._den * num, [c * den for c in self._ints])

    def __pow__(self, n: int) -> "Polynomial":
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        ints = self._ints
        if not any(ints[:-1]):
            # c x**j (or zero) to the n is c**n x**(j n) over den**n, already
            # in lowest terms, as gcd(c, den) == 1; 0**0 is 1
            if not n:
                return _ONE_POLY
            if not ints:
                return self
            j = len(ints) - 1
            return _new(self._den**n, (0,) * (j * n) + (ints[j] ** n,))
        out, square = _ONE_POLY, self
        while n:  # repeated squaring: a squaring per bit of n, a product per 1 bit
            if n & 1:
                out = out * square
            n >>= 1
            if n:
                square = square * square
        return out

    # ------------------------------------------------------------ operations

    def eval(self, x: Scalar) -> Fraction:
        """Value at x = a/b by Horner's scheme on ints (``_horner``):
        sum_i c_i a**i b**(d-i) over den * b**d, for the degree d."""
        (a, b), d = _ratio(x), max(self.degree, 0)
        row = [c * b ** (d - i) for i, c in enumerate(self._ints)]
        return Fraction(_horner(row, a), self._den * b**d)

    def shift(self, c: Scalar) -> "Polynomial":
        """The composed polynomial x |-> P(x + c), by Horner's rule in x + c:
        for c = a/b, b**d P(x + a/b) is Q(b x + a), where Q's coefficients
        are c_i b**(d-i)."""
        (a, b), d = _ratio(c), self.degree
        row: list = []
        for i in range(d, -1, -1):
            row = _muladd([self._ints[i] * b ** (d - i)], row, (a, b))
        return _reduced(self._den * b ** max(d, 0), row)

    def derivative(self) -> "Polynomial":
        return _reduced(self._den, [i * c for i, c in enumerate(self._ints) if i])

    def divide_x(self) -> "Polynomial":
        """Exact quotient P(x) / x; requires a zero constant term."""
        if self.is_zero:
            return self
        if self._ints[0]:
            raise ValueError("not divisible by x")
        return _reduced(self._den, list(self._ints[1:]))

    # ------------------------------------------------------------- rendering

    def text(self, var: str = "n") -> str:
        """Plain-text form, descending powers, e.g. ``3*n^2 - 5*n + 2``."""
        return _render(self._den, self._ints, var, "text")

    def latex(self, var: str = "n") -> str:
        return _render(self._den, self._ints, var, "latex")

    __str__ = text


def _reduced(den: int, ints: "list[int]") -> Polynomial:
    """The polynomial ints / den for a list of ints and den > 0: trailing
    zeros trimmed from the list in place, then one gcd divided out."""
    while ints and not ints[-1]:
        ints.pop()
    g = math.gcd(den, *ints)
    if g != 1:
        den //= g
        ints = [c // g for c in ints]
    return _new(den, tuple(ints))


def _new(den: int, ints: "tuple[int, ...]") -> Polynomial:
    """The polynomial of a canonical row, taken as it is."""
    out = object.__new__(Polynomial)
    object.__setattr__(out, "_den", den)
    object.__setattr__(out, "_ints", ints)
    return out


_ONE_POLY = _new(1, (1,))


def _sum(aden: int, a, bden: int, b, sign: int) -> Polynomial:
    """a / aden + sign * b / bden, over the lcm of the two denominators."""
    entry = [aden, list(a)]
    _muladd_over(entry, b, bden, sign)
    return _reduced(*entry)


def _row(value: object) -> "tuple[int, tuple[int, ...]] | None":
    """``(den, ints)`` of a polynomial or scalar; None for any other value."""
    if isinstance(value, Polynomial):
        return value._den, value._ints
    if isinstance(value, (int, Fraction)):
        return value.denominator, (value.numerator,) if value else ()
    return None


# How each format writes a rational that is not an integer, a power of the
# variable, a product, the padding around the sign between two monomials, a
# bracketed factor and the harmonic sum of a composition: all but the product
# and the padding are %-templates.
_FORMATS = {
    "text": ("%d/%d", "%s^%d", "*", " ", "(%s)", "H(%s)"),
    "latex": (r"\frac{%d}{%d}", "%s^{%d}", "", "", r"\left(%s\right)", "H_n(%s)"),
}


def _render(den: int, ints, var: str, fmt: str) -> str:
    """The polynomial with ascending coefficients ints / den in descending
    powers of ``var``, written in one of the ``_FORMATS``."""
    fraction, power, times, pad, _, _ = _FORMATS[fmt]
    parts = []
    for i, (c, d) in reversed(list(enumerate(_lowest(den, ints)))):
        if c:
            a = abs(c)
            body = str(a) if d == 1 else fraction % (a, d)
            if i:
                v = var if i == 1 else power % (var, i)
                body = v if a == d == 1 else body + times + v
            parts.append(("-" if c < 0 else "+", body))
    return join_signed(parts, pad)


def _lowest(den: int, ints) -> "list[tuple[int, int]]":
    """(numerator, denominator) of each coefficient ints[i] / den, in lowest
    terms by one gcd each."""
    return [(c // g, den // g) for c in ints for g in (math.gcd(c, den),)]


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


def _horner(row, x: int) -> int:
    """The value at an integer x of the polynomial with the ascending
    integer coefficients ``row``, by Horner's scheme on ints."""
    acc = 0
    for c in reversed(row):
        acc = acc * x + c
    return acc


def _muladd(row: list, a, b) -> list:
    """``row += a * b`` for ascending coefficient sequences; returns ``row``.

    The one loop that adds or multiplies coefficient sequences.  ``row``
    grows as needed; a factor of 1 adds ``a`` without a multiplication, and a
    slot still at 0 takes its term without an addition.  Both shortcuts keep
    the row's ints shared with ``a`` instead of copied, which keeps the
    largest products faster and the deepest walks' peak memory lower.
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
    if not isinstance(F, Polynomial):
        raise TypeError("discrete_sum takes a Polynomial")
    d = F.degree
    if d < 0:
        return F
    # den * F(0), ..., den * F(d) as ints; the j-th forward difference is
    # divided by (j + 1)!, so the sum is built over den * (d + 1)!
    row = [_horner(F._ints, i) for i in range(d + 1)]
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
    return _reduced(F._den * top, out)
