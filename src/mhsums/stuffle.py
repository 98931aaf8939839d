"""Quasi-shuffle (stuffle) product on harmonic-sum index compositions.

For every upper limit n, H_n(a) * H_n(b) expands into the combination
produced by ``stuffle(a, b)``: recursively, either composition's leading
entry goes first, or the two leading entries merge into their sum.
Products of basis compositions only ever have positive integer
coefficients; the cached products, of two compositions (``_stuffle``) and
the powers H(k)**t (``_expand_power``), keep them as ints, which multiply
and add faster than ``Fraction``, and every public function returns exact
rationals.  ``_product`` is the one bilinear product behind both the public
``product_combinations`` and the int expansions of ``mhsums.sums``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Mapping

from .oracle import is_proper
from .polynomial import _ratio

__all__ = [
    "Combination",
    "composition_key",
    "stuffle",
    "product_combinations",
    "expand_power",
]

Combination = "dict[tuple[int, ...], Fraction]"


def composition_key(comp: "tuple[int, ...]") -> "tuple[int, int, tuple[int, ...]]":
    """Canonical sort key: weight, then depth, then the entries."""
    return (sum(comp), len(comp), comp)


def _proper(comp) -> "tuple[int, ...]":
    """The composition as a tuple, checked proper before a memo sees it."""
    comp = tuple(comp)
    if not is_proper(comp):
        raise ValueError("stuffle is defined on proper compositions only")
    return comp


@lru_cache(maxsize=None)
def _stuffle(a: "tuple[int, ...]", b: "tuple[int, ...]"):
    if not a:
        return ((b, 1),)
    if not b:
        return ((a, 1),)
    out: "dict[tuple[int, ...], int]" = {}

    def absorb(prefix, items):
        for comp, c in items:
            key = prefix + comp
            out[key] = out.get(key, 0) + c

    absorb((a[0],), _stuffle(a[1:], b))
    absorb((b[0],), _stuffle(a, b[1:]))
    absorb((a[0] + b[0],), _stuffle(a[1:], b[1:]))
    return tuple(out.items())


def stuffle(a: "tuple[int, ...]", b: "tuple[int, ...]") -> "dict[tuple[int, ...], Fraction]":
    """Quasi-shuffle product of two proper compositions."""
    a, b = _proper(a), _proper(b)
    return {comp: Fraction(c) for comp, c in _stuffle(a, b)}


def _terms(comb: "Combination") -> list:
    """(composition, coefficient) pairs of a combination's nonzero terms, each
    key proper and each coefficient an int or ``Fraction`` (an int when
    integral, which multiplies and adds faster)."""
    if not isinstance(comb, Mapping):
        raise TypeError(f"expected a combination, got {type(comb).__name__}")
    pairs = [(_proper(comp), c, _ratio(c)) for comp, c in comb.items()]
    return [(comp, a if b == 1 else c) for comp, c, (a, b) in pairs if a]


def product_combinations(
    a: "dict[tuple[int, ...], Fraction]", b: "dict[tuple[int, ...], Fraction]"
) -> "dict[tuple[int, ...], Fraction]":
    """Bilinear extension of the stuffle product to combinations."""
    return {comp: Fraction(v) for comp, v in _product(_terms(a), _terms(b)).items() if v}


def _product(a, b) -> "dict[tuple[int, ...], int]":
    """The stuffle product of two combinations given as (composition,
    coefficient) pairs, as a dict; int coefficients give int products."""
    out: "dict[tuple[int, ...], int]" = {}
    for ka, ca in a:
        for kb, cb in b:
            scale = ca * cb
            for comp, c in _stuffle(ka, kb):
                out[comp] = out.get(comp, 0) + scale * c
    return out


@lru_cache(maxsize=None)
def _expand_power(k: int, t: int):
    if t == 0:
        return (((), 1),)
    return tuple(_product(_expand_power(k, t - 1), (((k,), 1),)).items())


def expand_power(k: int, t: int) -> "dict[tuple[int, ...], Fraction]":
    """Expansion of H_n(k)**t as a combination of basis compositions."""
    if type(k) is not int or k < 1:
        raise ValueError("the base order must be a positive integer")
    if not isinstance(t, int) or t < 0:
        raise ValueError("the power must be a nonnegative integer")
    return {comp: Fraction(c) for comp, c in _expand_power(k, t)}
