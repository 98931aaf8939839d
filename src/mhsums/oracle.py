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
evaluations are lookups.  The cache grows append-only under a re-entrant
lock, so it behaves as if computed once even when shared between threads.
"""

from __future__ import annotations

import threading
from fractions import Fraction

__all__ = [
    "Composition",
    "is_proper",
    "check_extended",
    "mhs_eval",
    "mhs_values",
    "harmonic",
]

Composition = "tuple[int, ...]"

_cache: "dict[tuple[int, ...], list[Fraction]]" = {}
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


def _values(comp: "tuple[int, ...]", n: int) -> "list[Fraction]":
    with _lock:
        vals = _cache.get(comp)
        if vals is not None and len(vals) > n:
            return vals
        # back to front: the table of comp[i:] needs its values up to n - i
        for i in range(min(len(comp), n + 1), -1, -1):
            tail, suffix = vals, comp[i:]
            vals = _cache.setdefault(suffix, [Fraction(0) if suffix else Fraction(1)])
            if not suffix:
                vals.extend([Fraction(1)] * (n - i + 1 - len(vals)))
                continue
            for m in range(len(vals), n - i + 1):
                vals.append(vals[m - 1] + Fraction(m) ** (-suffix[0]) * tail[m - 1])
        return vals


def _checked(n: int, comp: "tuple[int, ...]") -> "tuple[int, ...]":
    """The composition as a tuple, once it and the upper limit are valid."""
    comp = tuple(comp)
    check_extended(comp)
    if not isinstance(n, int) or n < 0:
        raise ValueError("upper limit must be a nonnegative integer")
    return comp


def mhs_values(n: int, comp: "tuple[int, ...]") -> "list[Fraction]":
    """The list [H_0(comp), H_1(comp), ..., H_n(comp)]."""
    return _values(_checked(n, comp), n)[: n + 1]


def mhs_eval(n: int, comp: "tuple[int, ...]") -> Fraction:
    """H_n(comp) as an exact rational."""
    return _values(_checked(n, comp), n)[n]


def harmonic(n: int, order: int = 1) -> Fraction:
    """The generalized harmonic number H_n of the given positive order."""
    if not isinstance(order, int) or order < 1:
        raise ValueError("harmonic order must be a positive integer")
    return mhs_eval(n, (order,))
