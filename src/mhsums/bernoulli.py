"""Bernoulli numbers in both sign conventions, plus umbral evaluation.

The two conventions differ only at index 1, where the value is +1/2 ("plus")
or -1/2 ("minus").  Values come from the binomial recurrence

    sum_{j=0..m} C(m + 1, j) * b_j = 0   for m >= 1,   b_0 = 1,

which produces the minus convention directly; the plus convention flips the
sign at index 1 on read.  Each table keeps one growable list of
minus-convention values; extension happens under a lock so a table can be
shared between threads, and reads of already-computed entries need no
coordination.

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
        if n >= len(self._minus):
            self._grow(n)
        v = self._minus[n]
        if n == 1 and convention == "plus":
            return -v
        return v

    def _grow(self, n: int) -> None:
        with self._lock:
            vals = self._minus
            for m in range(len(vals), n + 1):
                acc = Fraction(0)
                for j in range(m):
                    if vals[j]:
                        acc += math.comb(m + 1, j) * vals[j]
                vals.append(-acc / (m + 1))


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
