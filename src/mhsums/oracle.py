"""Direct evaluation of multiple harmonic sums, with one leading power slot.

H_n(k_1, ..., k_r) sums prod_i 1/n_i**k_i over n >= n_1 > ... > n_r >= 1; the
empty composition gives 1 and any composition longer than n gives 0.  Entries
after the first must be positive.  The first entry may be zero or negative,
which turns 1/n_1**k_1 into the power n_1**|k_1|; that shape equals
sum_{m=1..n} m**|k_1| * H_{m-1}(k_2, ..., k_r).

Evaluation runs bottom-up over suffixes, the shortest first and without
recursion: the table of H_m(suffix) for m = 0..n is built once per
composition and cached, so a single evaluation costs O(n * depth) exact
rational operations instead of a depth-deep nested loop, and repeated
evaluations are lookups.  A table is two append-only lists of ints, the
numerators and the positive denominators of its values in lowest terms.
Each step reduces the new term m**-k * H_{m-1}(tail) (or m**|k| * ...) by
one gcd against the small power m**|k|, and adds it with Henrici's gcd
trick (Knuth, TAOCP vol. 2, section 4.5.1), so no object is built per step.
This module shares no arithmetic with the reducer, the sums or
``polynomial``: it stays an independent judge of their closed forms.

``mhs_values`` and ``mhs_eval`` hand out ``Fraction``s.  The package's own
readers take int lists and build no ``Fraction`` per value: ``verify`` and
the ``eval`` command read ``_pairs``, and closed-form evaluation reads
``_scaled``, a second view of a proper composition's table.  Its entries
are the numerators over lcm(1..m)**w, w the composition's weight, which
that power always clears; each is one exact division, made the first time
it is asked for and then kept.  The view fills only the entries asked for,
so a one-point evaluation at a large m leaves the others as holes (None),
and the caller passes the lcms, so that no list of them outlives a call.
The tables and their views grow under one re-entrant lock, so they behave
as if computed once even when shared between threads; an entry, once
stored, never changes.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import gcd

__all__ = [
    "Composition",
    "is_proper",
    "check_extended",
    "mhs_eval",
    "mhs_values",
    "harmonic",
]

Composition = "tuple[int, ...]"


class _Table:
    """H_m(comp) = nums[m] / dens[m] in lowest terms, dens[m] > 0, for
    m < len(table).  For a proper composition of weight w, ``scaled[m]``,
    once filled, is H_m(comp) * lcm(1..m)**w, an int; unfilled entries are
    None."""

    __slots__ = ("nums", "dens", "scaled")

    def __init__(self, first: int):
        self.nums, self.dens, self.scaled = [first], [1], []

    def __len__(self) -> int:
        return len(self.nums)


_cache: "dict[tuple[int, ...], _Table]" = {}
_lock = threading.RLock()


def is_proper(comp: "tuple[int, ...]") -> bool:
    """True when every entry is a positive integer (the empty composition is
    proper)."""
    return all(isinstance(k, int) and k >= 1 for k in comp)


def check_extended(comp: "tuple[int, ...]") -> None:
    """Validate a composition whose first entry may be any integer but whose
    remaining entries must be positive."""
    if not all(isinstance(k, int) for k in comp):
        raise ValueError("not a supported extended shape: entries must be integers")
    if any(k < 1 for k in comp[1:]):
        raise ValueError(
            "not a supported extended shape: only the first entry may be <= 0"
        )


def _values(comp: "tuple[int, ...]", n: int) -> _Table:
    with _lock:
        table = _cache.get(comp)
        if table is not None and len(table) > n:
            return table
        # back to front: the table of comp[i:] needs its values up to n - i
        for i in range(min(len(comp), n + 1), -1, -1):
            tail, suffix = table, comp[i:]
            table = _cache.get(suffix)
            if table is None:
                table = _cache[suffix] = _Table(0 if suffix else 1)
            nums, dens, top = table.nums, table.dens, n - i + 1
            if len(nums) >= top:
                continue
            if not suffix:
                nums.extend([1] * (top - len(nums)))
                dens.extend([1] * (top - len(dens)))
                continue
            k, tnums, tdens = suffix[0], tail.nums, tail.dens
            a, b = nums[-1], dens[-1]
            for m in range(len(nums), top):
                c = tnums[m - 1]
                if c:
                    # the term c / d = m**-k * H_{m-1}(tail), in lowest terms
                    d = tdens[m - 1]
                    if k > 0:
                        power = m**k
                        g = gcd(c, power)
                        c, d = c // g, d * (power // g)
                    elif k < 0:
                        power = m**-k
                        g = gcd(d, power)
                        c, d = c * (power // g), d // g
                    # a / b + c / d, reduced by the gcds of the denominators
                    g = gcd(b, d)
                    if g == 1:
                        a, b = a * d + b * c, b * d
                    else:
                        s = b // g
                        a = a * (d // g) + c * s
                        g = gcd(a, g)
                        if g == 1:
                            b = s * d
                        else:
                            a, b = a // g, s * (d // g)
                nums.append(a)
                dens.append(b)
        return table


def _checked(n: int, comp: "tuple[int, ...]") -> "tuple[int, ...]":
    """The composition as a tuple, once it and the upper limit are valid."""
    comp = tuple(comp)
    check_extended(comp)
    if not isinstance(n, int) or n < 0:
        raise ValueError("upper limit must be a nonnegative integer")
    return comp


def _pairs(n: int, comp: "tuple[int, ...]") -> "tuple[list[int], list[int]]":
    """The numerators and denominators of H_0(comp), ..., H_n(comp) in lowest
    terms, as the table's own lists: they may run past n, and readers must
    not change them."""
    table = _values(_checked(n, comp), n)
    return table.nums, table.dens


def _scaled(lo: int, hi: int, comp: "tuple[int, ...]", lcms) -> "list[int]":
    """H_m(comp) * lcm(1..m)**w for m = lo..hi, as ints, for a proper
    composition of weight w; ``lcms[m - lo]`` must be lcm(1..m).  The
    denominator of H_m(comp) divides lcm(1..m)**w, so each entry is one
    exact division, made once per table and m: only the entries asked for
    are filled."""
    with _lock:
        table = _values(comp, hi)
        scaled = table.scaled
        if len(scaled) <= hi:
            scaled.extend([None] * (hi + 1 - len(scaled)))
        out = scaled[lo : hi + 1]
        if None in out:
            nums, dens, w = table.nums, table.dens, sum(comp)
            for m in range(lo, hi + 1):
                if scaled[m] is None:
                    scaled[m] = nums[m] * (lcms[m - lo] ** w // dens[m])
            out = scaled[lo : hi + 1]
        return out


def mhs_values(n: int, comp: "tuple[int, ...]") -> "list[Fraction]":
    """The list [H_0(comp), H_1(comp), ..., H_n(comp)]."""
    nums, dens = _pairs(n, comp)
    return [Fraction(a, b) for a, b in zip(nums[: n + 1], dens)]


def mhs_eval(n: int, comp: "tuple[int, ...]") -> Fraction:
    """H_n(comp) as an exact rational."""
    nums, dens = _pairs(n, comp)
    return Fraction(nums[n], dens[n])


def harmonic(n: int, order: int = 1) -> Fraction:
    """The generalized harmonic number H_n of the given positive order."""
    if not isinstance(order, int) or order < 1:
        raise ValueError("harmonic order must be a positive integer")
    return mhs_eval(n, (order,))
