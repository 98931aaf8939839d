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
are lookups.  A table is one append-only list of ints, the values times
L(m)**w, where L(m) = lcm(1..m) and w is the sum of the composition's
positive entries: that power clears every denominator of H_m.  With
r = m / gcd(L(m-1), m), which is 1 except at a power of the prime r, a
step is

    N_m = (N_{m-1} * r**k + T_{m-1} * L(m)**k / m**k) * r**w_tail  (k > 0)
    N_m = (N_{m-1} + T_{m-1} * m**|k|) * r**w_tail                 (k <= 0)

for the first entry k and the tail's table T, with no gcd and no division
but the exact one by the small m**k.  Each table keeps its running L, and
L(m)**k changes only at prime powers.  This module shares no arithmetic
with the reducer, the sums or ``polynomial``: it stays an independent
judge of their closed forms.

Readers take lowest terms only at the boundary.  ``mhs_eval``, the
``eval`` command and ``table`` read one point (``_pair``), reduced by one
gcd against L(n)**w; ``mhs_values`` and ``verify`` read the numerators
over L(m)**w (``_pairs``); closed-form evaluation reads the numerators
themselves (``_scaled``).  The tables grow under one re-entrant lock, so
they behave as if computed once even when shared between threads; an
entry, once stored, never changes.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from math import gcd, isqrt, prod

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
    """H_m(comp) * lcm(1..m)**weight = nums[m], an int, for m < len(table),
    where weight is the sum of comp's positive entries.  For a nonempty comp,
    lcm is lcm(1..m) at the last m stored."""

    __slots__ = ("nums", "weight", "lcm")

    def __init__(self, comp: "tuple[int, ...]"):
        self.nums = [0 if comp else 1]
        self.weight = sum(k for k in comp if k > 0)
        self.lcm = 1

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
                table = _cache[suffix] = _Table(suffix)
            nums, top = table.nums, n - i + 1
            if len(nums) >= top:
                continue
            if not suffix:
                nums.extend([1] * (top - len(nums)))
                continue
            k, w, tw, tnums = suffix[0], table.weight, tail.weight, tail.nums
            lcm, a = table.lcm, nums[-1]
            power = lcm**k if k > 0 else 1
            for m in range(len(nums), top):
                # a = H_{m-1}(suffix) * lcm(1..m-1)**w; r = 1 but at prime powers
                r = m // gcd(lcm, m)
                if r > 1:
                    lcm *= r
                    if k > 0:
                        power *= r**k
                # c = m**-k * H_{m-1}(tail) * lcm(1..m)**(w - tw) * lcm(1..m-1)**tw
                c = tnums[m - 1]
                if c:
                    c *= power // m**k if k > 0 else m**-k
                if r > 1 and (a or c):  # deep tables start with zeros
                    a = (a * r ** (w - tw) + c) * r**tw
                else:
                    a += c
                nums.append(a)
            table.lcm = lcm
        return table


def _checked(n: int, comp: "tuple[int, ...]") -> "tuple[int, ...]":
    """The composition as a tuple, once it and the upper limit are valid."""
    comp = tuple(comp)
    check_extended(comp)
    if not isinstance(n, int) or n < 0:
        raise ValueError("upper limit must be a nonnegative integer")
    return comp


def _pair(n: int, comp: "tuple[int, ...]") -> "tuple[int, int]":
    """H_n(comp) as (numerator, denominator > 0) in lowest terms."""
    table = _values(_checked(n, comp), n)
    num, den = table.nums[n], _lcm_upto(n) ** table.weight
    g = gcd(num, den)
    return num // g, den // g


def _pairs(n: int, comp: "tuple[int, ...]") -> "tuple[list[int], list[int]]":
    """H_m(comp) = nums[m] / dens[m] for m = 0..n, with dens[m] =
    lcm(1..m)**w, not in lowest terms.  nums is the table's own list: it may
    run past n, and readers must not change it."""
    table = _values(_checked(n, comp), n)
    w, lcm, den, dens = table.weight, 1, 1, [1]
    for m in range(1, n + 1):
        r = m // gcd(lcm, m)
        if r > 1:
            lcm, den = lcm * r, den * r**w
        dens.append(den)
    return table.nums, dens


def _scaled(lo: int, hi: int, comp: "tuple[int, ...]") -> "list[int]":
    """H_m(comp) * lcm(1..m)**w for m = lo..hi, as ints, for a proper
    composition of weight w: a slice of its table."""
    return _values(comp, hi).nums[lo : hi + 1]


@lru_cache(maxsize=1)
def _lcm_upto(n: int) -> int:
    """lcm(1..n), as the product of the largest prime powers up to n: the
    primes up to sqrt(n) by a sieve, each raised to its largest power up to
    n, and the primes above sqrt(n) once each.  Folding lcm over 1..n would
    take a gcd with the growing lcm at every step.  The last n is memoized:
    a ``table`` row reads it for the oracle and for the closed form."""
    root = isqrt(n)
    sieve = bytearray([1]) * (n + 1)
    out = 1
    for p in range(2, root + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
            q = p
            while q * p <= n:
                q *= p
            out *= q
    return out * prod(compress(range(root + 1, n + 1), sieve[root + 1 :]))


def mhs_values(n: int, comp: "tuple[int, ...]") -> "list[Fraction]":
    """The list [H_0(comp), H_1(comp), ..., H_n(comp)]."""
    nums, dens = _pairs(n, comp)
    return [Fraction(a, b) for a, b in zip(nums[: n + 1], dens)]


def mhs_eval(n: int, comp: "tuple[int, ...]") -> Fraction:
    """H_n(comp) as an exact rational."""
    return Fraction(*_pair(n, comp))


def harmonic(n: int, order: int = 1) -> Fraction:
    """The generalized harmonic number H_n of the given positive order."""
    if not isinstance(order, int) or order < 1:
        raise ValueError("harmonic order must be a positive integer")
    return mhs_eval(n, (order,))
