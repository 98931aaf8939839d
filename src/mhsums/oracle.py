"""Direct evaluation of multiple harmonic sums, with one leading power slot.

H_n(k_1, ..., k_r) sums prod_i 1/n_i**k_i over n >= n_1 > ... > n_r >= 1; the
empty composition gives 1 and any composition longer than n gives 0.  Entries
after the first must be positive.  The first entry may be zero or negative,
which turns 1/n_1**k_1 into the power n_1**|k_1|; that shape equals
sum_{m=1..n} m**|k_1| * H_{m-1}(k_2, ..., k_r).

Evaluation runs bottom-up over suffixes, the shortest first and without
recursion: the table of H_m(suffix) for m = 0..n is built once per
composition and cached, so a single evaluation costs O(n * depth) exact
operations instead of a depth-deep nested loop, and repeated evaluations
are lookups.  A table, ``_cache[comp]``, is one append-only list of ints:
the values times L(m)**w, with L(m) = lcm(1..m) and w (``_weight``) the sum
of the positive entries, which clears every denominator of H_m.

Every L(m) here and in its readers comes from one rule, L(m) = L(m-1) * r_m,
where r_m is the prime p when m is a power of p and 1 otherwise.  One sieve
keeps r_0, r_1, ... (``_steps_upto``); it grows by doubling under the lock.
With r = r_m, a step of a table is

    N_m = (N_{m-1} * r**k + T_{m-1} * L(m)**k / m**k) * r**w_tail  (k > 0)
    N_m = (N_{m-1} + T_{m-1} * m**|k|) * r**w_tail                 (k <= 0)

for the first entry k and the tail's table T, with no gcd and no division
but the exact one by the small m**k; L(m)**k changes only at prime powers.
lcm(1..n) itself is the product of the sieve's r_m > 1 (``_lcm_upto``), and
each column L(lo)**k, ..., L(hi)**k a running product of r_m**k
(``_lcm_powers``).  This module shares no arithmetic with the reducer, the
sums or ``polynomial``: it stays an independent judge of their closed forms.

Readers take lowest terms only at the boundary.  ``mhs_eval``, the
``eval`` command and ``table`` read one point (``_pair``): the table's entry
at n, reduced by one gcd against L(n)**w.  Every other reader takes a slice
of the numerators over L(m)**top for a top >= w of its choice
(``_scaled``): ``mhs_values`` at top = w, over the column of L(m)**w, and
closed-form evaluation and ``verify``, also of the extended (-p,) + comp
that ``reduce`` is checked against, at the largest weight of the form.  At
top = w the slice is the table's own.  Past w, a slice from m = 0 is a
prefix of a lifted column, H_m(comp) * L(m)**top kept per (comp, top - w)
in ``_lifted``, apart from the tables, and grown like one: the table's new
entries times the column of L(m)**(top - w).  A slice from m = lo > 0, as
``eval(n)`` and ``table`` read, lifts its own entries and keeps nothing, so
one point never builds a column from 0.  The tables, the lifted columns and
the sieve grow under one re-entrant lock, so they behave as if computed
once even when shared between threads; an entry, once stored, never
changes.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, islice, repeat
from math import gcd, isqrt, prod
from operator import mul

__all__ = [
    "Composition",
    "is_proper",
    "check_extended",
    "mhs_eval",
    "mhs_values",
    "harmonic",
]

Composition = "tuple[int, ...]"


_cache: "dict[tuple[int, ...], list[int]]" = {}  # comp -> H_m(comp) * L(m)**w
_lifted: "dict[tuple, list[int]]" = {}  # (comp, e) -> H_m(comp) * L(m)**(w + e)
_lock = threading.RLock()
_steps = [1, 1]  # the sieve: _steps[m] = r_m = lcm(1..m) / lcm(1..m-1)


def _steps_upto(n: int) -> "list[int]":
    """The sieve r_0, r_1, ..., at least up to r_n: the list itself, which
    may run past n, and which readers must not change.  It grows under the
    lock to twice its length, or to n + 1 entries if that is more."""
    steps = _steps
    if len(steps) > n:
        return steps
    with _lock:
        size = len(steps)
        if size > n:
            return steps
        top = max(n + 1, 2 * size)
        is_prime, powers = bytearray([1]) * top, {}
        for p in range(2, isqrt(top - 1) + 1):
            if is_prime[p]:
                is_prime[p * p :: p] = bytes(len(range(p * p, top, p)))
                q = p * p
                while q < top:
                    powers[q] = p
                    q *= p
        grown = [m if is_prime[m] else powers.get(m, 1) for m in range(size, top)]
        steps.extend(grown)  # one call: readers without the lock see whole entries
    return steps


def is_proper(comp: "tuple[int, ...]") -> bool:
    """True when every entry is a positive int, and not a bool (the empty
    composition is proper)."""
    return all(type(k) is int and k >= 1 for k in comp)


def check_extended(comp: "tuple[int, ...]") -> None:
    """Validate a composition whose first entry may be any integer but whose
    remaining entries must be positive."""
    if not all(type(k) is int for k in comp):
        raise ValueError("not a supported extended shape: entries must be integers")
    if any(k < 1 for k in comp[1:]):
        raise ValueError(
            "not a supported extended shape: only the first entry may be <= 0"
        )


def _weight(comp: "tuple[int, ...]") -> int:
    """w, the sum of the composition's positive entries."""
    return sum(k for k in comp if k > 0)


def _values(comp: "tuple[int, ...]", n: int) -> "list[int]":
    with _lock:
        nums = _cache.get(comp)
        if nums is not None and len(nums) > n:
            return nums
        # back to front: the table of comp[i:] needs its values up to n - i
        for i in range(min(len(comp), n + 1), -1, -1):
            tnums, suffix = nums, comp[i:]
            nums = _cache.get(suffix)
            if nums is None:
                nums = _cache[suffix] = [0 if suffix else 1]
            top = n - i + 1
            if len(nums) >= top:
                continue
            if not suffix:
                nums.extend([1] * (top - len(nums)))
                continue
            k, w = suffix[0], _weight(suffix)
            tw = w - max(k, 0)
            a, start = nums[-1], len(nums)
            # L(start - 1)**k, unmemoized: the memo keeps the n ``table`` reads
            power = _lcm_upto.__wrapped__(start - 1) ** k if k > 0 else 1
            for m, r in enumerate(islice(_steps_upto(n), start, top), start):
                # a = H_{m-1}(suffix) * L(m-1)**w
                if r > 1 and k > 0:
                    power *= r**k
                # c = m**-k * H_{m-1}(tail) * L(m)**(w - tw) * L(m-1)**tw
                c = tnums[m - 1]
                if c:
                    c *= power // m**k if k > 0 else m**-k
                if r > 1 and (a or c):  # deep tables start with zeros
                    a = (a * r ** (w - tw) + c) * r**tw
                else:
                    a += c
                nums.append(a)
        return nums


def _checked(n: int, comp: "tuple[int, ...]") -> "tuple[int, ...]":
    """The composition as a tuple, once it and the upper limit are valid."""
    comp = tuple(comp)
    check_extended(comp)
    if not isinstance(n, int) or n < 0:
        raise ValueError("upper limit must be a nonnegative integer")
    return comp


def _pair(n: int, comp: "tuple[int, ...]") -> "tuple[int, int]":
    """H_n(comp) as (numerator, denominator > 0) in lowest terms."""
    comp = _checked(n, comp)
    num, den = _values(comp, n)[n], _lcm_upto(n) ** _weight(comp)
    g = gcd(num, den)
    return num // g, den // g


def _scaled(lo: int, hi: int, comp: "tuple[int, ...]", top: int) -> "list[int]":
    """H_m(comp) * lcm(1..m)**top for m = lo..hi, as ints, for a composition
    whose positive entries sum to w <= top, proper or extended.  At top = w
    this is a slice of its table.  Past w, a read from lo = 0 is a prefix of
    the lifted column of (comp, top - w), grown under the lock; a read from
    lo > 0 lifts its own slice."""
    values = _values(comp, hi)
    e = top - _weight(comp)
    if not e:
        return values[lo : hi + 1]
    if lo:
        return list(map(mul, values[lo : hi + 1], _lcm_powers(lo, hi, e)))
    lifted = _lifted.get((comp, e))
    if lifted is None or len(lifted) <= hi:
        with _lock:
            lifted = _lifted.setdefault((comp, e), [])
            start = len(lifted)
            if start <= hi:
                lift = _lcm_powers(start, hi, e)
                # one call: readers without the lock see whole entries
                lifted.extend(map(mul, values[start : hi + 1], lift))
    return lifted[: hi + 1]


@lru_cache(maxsize=1)
def _lcm_upto(n: int) -> int:
    """lcm(1..n), the product of the sieve's r_m > 1 for m <= n.  The last n
    is memoized: a ``table`` row reads it for the oracle and for the closed
    form."""
    return prod(filter((1).__lt__, islice(_steps_upto(n), n + 1)))


def _lcm_powers(lo: int, hi: int, k: int) -> "list[int]":
    """[L(m)**k for m = lo..hi], lo <= hi, with L(m) = lcm(1..m): one
    running product of the sieve's r_m**k from L(lo)**k."""
    steps = map(pow, _steps_upto(hi)[lo + 1 : hi + 1], repeat(k))
    return list(accumulate(steps, mul, initial=_lcm_upto(lo) ** k))


def mhs_values(n: int, comp: "tuple[int, ...]") -> "list[Fraction]":
    """The list [H_0(comp), H_1(comp), ..., H_n(comp)]."""
    comp = _checked(n, comp)
    w = _weight(comp)
    dens = _lcm_powers(0, n, w)
    return [Fraction(a, b) for a, b in zip(_scaled(0, n, comp, w), dens)]


def mhs_eval(n: int, comp: "tuple[int, ...]") -> Fraction:
    """H_n(comp) as an exact rational."""
    return Fraction(*_pair(n, comp))


def harmonic(n: int, order: int = 1) -> Fraction:
    """The generalized harmonic number H_n of the given positive order."""
    if type(order) is not int or order < 1:
        raise ValueError("harmonic order must be a positive integer")
    return mhs_eval(n, (order,))
