"""Bernoulli numbers in both sign conventions, plus umbral evaluation.

The two conventions differ only at index 1, where the value is +1/2 ("plus")
or -1/2 ("minus").  The even-index values come from the tangent numbers
T_k, the integers with tan x = sum_k T_k x**(2k-1) / (2k-1)!:

    B_2k = (-1)**(k-1) * 2k * T_k / (4**k * (4**k - 1)),

with B_1 = -1/2 and B_odd = 0 beyond it.  T_1..T_K come from an in-place
triangle of O(K**2) integer steps, each two products by small factors and a
sum, not from a recurrence over ``Fraction``s (D. E. Knuth and T. J.
Buckholtz, "Computation of tangent, Euler, and Bernoulli numbers", Math.
Comp. 21 (1967); R. P. Brent and D. Harvey, "Fast computation of Bernoulli,
Tangent and Secant numbers" (2011), arXiv:1108.0286, Algorithm
TangentNumbers).  This gives the minus convention
directly; the plus convention flips the sign at index 1 on read.  Each
table keeps one growable list of minus-convention values; extension happens
under a lock so a table can be shared between threads, one entry appended at
a time, and reads of already-computed entries need no coordination: a read
indexes the list whose length it checked, so ``clear_caches``, which swaps
in a new list, never shortens one under a reader.  A table
grows to at least twice its length, recomputing the triangle each time, so
reading the indices 0, 1, 2, ... in turn costs O(n**2) steps overall.

Where the time goes the numbers are read as one int row: B_0..B_h in the
plus convention over their lcm (``_bernoulli_ints``, memoized per h).  The
reducer's chain and ``faulhaber`` read it, and ``umbral_eval`` is one dot
product of a polynomial's row with it, building one ``Fraction``.
"""

from __future__ import annotations

import math
import operator
import threading
from fractions import Fraction
from functools import lru_cache
from typing import Literal, Optional

from .polynomial import Polynomial

__all__ = ["Convention", "BernoulliTable", "bernoulli", "umbral_eval", "check_twoBs"]

Convention = Literal["plus", "minus"]


def _check_convention(convention: str) -> None:
    if convention not in ("plus", "minus"):
        raise ValueError(f"unknown Bernoulli convention {convention!r}")


class BernoulliTable:
    """Growable memo of Bernoulli numbers under one sign convention."""

    def __init__(self, convention: Convention = "plus"):
        _check_convention(convention)
        self.convention = convention
        self._minus = [Fraction(1)]
        self._lock = threading.Lock()

    def value(self, n: int, convention: Optional[Convention] = None) -> Fraction:
        if not isinstance(n, int) or n < 0:
            raise ValueError("Bernoulli index must be a nonnegative integer")
        convention = self.convention if convention is None else convention
        _check_convention(convention)
        vals = self._minus  # one list: clear_caches swaps in a new one
        if n >= len(vals):
            vals = self._grow(n)
        v = vals[n]
        if n == 1 and convention == "plus":
            return -v
        return v

    def _grow(self, n: int) -> "list[Fraction]":
        """The table's list, grown to hold index n."""
        with self._lock:
            vals = self._minus
            start = len(vals)
            if n < start:  # another thread grew the table meanwhile
                return vals
            # doubling keeps reads of 0, 1, 2, ... in turn at O(n**2) overall
            end = max(n, 2 * start)
            tangents = _tangent_numbers(end // 2)
            for m in range(start, end + 1):
                if m == 1:
                    vals.append(Fraction(-1, 2))
                elif m % 2:
                    vals.append(Fraction(0))
                else:
                    k = m // 2
                    four = 4**k
                    num = m * tangents[k - 1]
                    vals.append(Fraction(num if k % 2 else -num, four * (four - 1)))
            return vals


def _tangent_numbers(count: int) -> "list[int]":
    """T_1, ..., T_count, by Brent and Harvey's in-place triangle."""
    t = [1] * count
    for k in range(1, count):
        t[k] = k * t[k - 1]
    for k in range(1, count):
        for j in range(k, count):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t


_SHARED = BernoulliTable()


def bernoulli(n: int, convention: Convention = "plus") -> Fraction:
    """The n-th Bernoulli number under the requested sign convention."""
    return _SHARED.value(n, convention)


@lru_cache(maxsize=None)
def _bernoulli_ints(h: int) -> "tuple[int, tuple[int, ...]]":
    """``(bden, (B_0 * bden, ..., B_h * bden))`` in the plus convention, with
    bden the lcm of the denominators."""
    values = [bernoulli(j, "plus") for j in range(h + 1)]
    bden = math.lcm(*[b.denominator for b in values])
    return bden, tuple(b.numerator * (bden // b.denominator) for b in values)


def umbral_eval(P: Polynomial, convention: Convention = "plus") -> Fraction:
    """Umbral value of P: each power x**i is replaced by the i-th Bernoulli
    number, i.e. sum_i c_i * B_i.

    One dot product of P's row with the plus-convention row of
    ``_bernoulli_ints``; the minus value is the plus value less c_1.
    """
    _check_convention(convention)
    if not isinstance(P, Polynomial):
        raise TypeError("umbral_eval takes a Polynomial")
    ints = P._ints
    bden, brow = _bernoulli_ints(len(ints) - 1)
    num = sum(map(operator.mul, ints, brow))
    if convention == "minus" and len(ints) > 1:
        num -= ints[1] * bden
    return Fraction(num, P._den * bden)


def check_twoBs(P: Polynomial) -> "tuple[bool, bool]":
    """Whether P vanishes umbrally under the minus convention, and whether the
    shifted polynomial P(x - 1) vanishes umbrally under the plus convention.

    The two flags always agree: substituting x - 1 and flipping the index-1
    sign describe the same linear functional.
    """
    minus_zero = umbral_eval(P, "minus") == 0
    shifted_plus_zero = umbral_eval(P.shift(-1), "plus") == 0
    return (minus_zero, shifted_plus_zero)
