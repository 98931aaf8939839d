"""Bernoulli numbers in both sign conventions, plus umbral evaluation.

The two conventions differ only at index 1, where the value is +1/2 ("plus")
or -1/2 ("minus").  Values come from the binomial recurrence

    sum_{j=0..m} C(m + 1, j) * b_j = 0   for m >= 1,   b_0 = 1,

which produces the minus convention directly; the plus convention flips the
sign at index 1 on read.  Each table keeps one growable list of
minus-convention values; extension happens under a lock so a table can be
shared between threads, and reads of already-computed entries need no
coordination.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
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


def umbral_eval(P: Polynomial, convention: Convention = "plus") -> Fraction:
    """Umbral value of P: each power x**i is replaced by the i-th Bernoulli
    number, i.e. sum_i c_i * B_i."""
    _check_convention(convention)
    acc = Fraction(0)
    for i, c in enumerate(P._ints):
        if c:
            acc += c * bernoulli(i, convention)
    return acc / P._den


def check_twoBs(P: Polynomial) -> "tuple[bool, bool]":
    """Whether P vanishes umbrally under the minus convention, and whether the
    shifted polynomial P(x - 1) vanishes umbrally under the plus convention.

    The two flags always agree: substituting x - 1 and flipping the index-1
    sign describe the same linear functional.
    """
    minus_zero = umbral_eval(P, "minus") == 0
    shifted_plus_zero = umbral_eval(P.shift(-1), "plus") == 0
    return (minus_zero, shifted_plus_zero)
