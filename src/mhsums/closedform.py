"""Linear combinations of multiple harmonic sums with polynomial coefficients.

A ClosedForm maps proper compositions to polynomial coefficients in the upper
limit n; the empty composition carries the pure polynomial part.  Its value
at n is sum over terms of coeff(n) * H_n(composition).  Equality is
structural on the canonical map: basis terms are treated as independent, and
the direct evaluator (``mhsums.oracle``) serves as the semantic backstop in
the tests.

Every form is built in one private accumulator, ``_Accumulator``: a mutable
map from compositions to rows of int numerators, each over a denominator of
its own, brought to a new lcm only when a new denominator arrives
(``polynomial._muladd_over``).  The reducer and the sums add their power
sums as ints (``add_ints``); ``add`` and ``add_form`` take ints,
``Fraction``s and polynomials.  ``freeze`` makes each row a ``Polynomial``
with one gcd and no ``Fraction``.  The constructor, ``+``, ``-``, ``scale``
and the reducer and sums modules all go through it; the ``ClosedForm`` they
return stays immutable.

Evaluation reads the polynomials' rows over D, the lcm of their
denominators, and one known denominator per weight: with L = lcm(1..n),
the denominator of H_n(comp) divides L**w for w = sum(comp).  The direct
evaluator keeps each table's values as numerators over L**w and hands them
out already lifted to L**top, for any top at least W, the largest weight
(``oracle._scaled``); every column of powers L**k over a range of n comes
from it too (``oracle._lcm_powers``).  Over the column of n, each
coefficient of degree d takes its values as ints from Horner's scheme at
the first d + 1 points and, past them, from forward differences: its d-th
difference is constant, and each lower difference column is one running
sum of the next (Knuth, TAOCP vol. 2, 4.6.4).  The value is the sum of
their products with the lifted numerators over L**top * D
(``_numerators``), with no gcd, lcm or division per term and n.
``_ratios`` pairs the numerators at top = W with their denominators, the
column of L**W times D, and ``values(max_n)`` and ``eval(n)`` build one
``Fraction`` per pair.  ``verify`` reads the
numerators alone, at the larger of W and the direct side's weight, since
both sides' denominators are known.

Terms render and serialize in one canonical order (weight, then depth, then
lexicographic entries), so every emitter is deterministic.  JSON is written
in one pass (``to_json``, and ``term_json`` per term, which ``check`` uses
too): one ``[numerator, denominator]`` pair per coefficient, reduced by one
gcd, with no tree of dicts and no encoder.  The text is exactly
``json.dumps`` of ``to_json_obj``.  Copies and pickles rebuild a form from
its terms.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import accumulate, repeat
from operator import add, mul, sub
from typing import Iterable, Mapping, Union

from .oracle import _lcm_powers, _scaled, is_proper
from .polynomial import _FORMATS, Polynomial, _horner, _muladd, _muladd_over
from .polynomial import _lowest, _reduced, _render, _row, join_signed
from .stuffle import composition_key

__all__ = ["ClosedForm", "term_json", "term_json_obj"]

Coefficient = Union[Polynomial, Fraction, int]


def _coeffs(value: Coefficient) -> "tuple[int, tuple[int, ...]]":
    """``(den, ints)`` of a polynomial or scalar coefficient."""
    row = _row(value)
    if row is None:
        kind = type(value).__name__
        raise TypeError(f"expected a Polynomial or scalar, got {kind}")
    return row


class _Accumulator:
    """Mutable map from compositions to int rows over a denominator each,
    summed in place by the polynomial kernel.  ``freeze`` builds the
    immutable result once.
    """

    __slots__ = ("_rows",)

    def __init__(self):
        self._rows: "dict[tuple[int, ...], list]" = {}  # comp -> [den, ints]

    def add(
        self, comp: "tuple[int, ...]", coeff: Coefficient, c: Coefficient = 1
    ) -> None:
        """Add c times the polynomial or scalar ``coeff`` to ``comp``."""
        (aden, a), (bden, b) = _coeffs(coeff), _coeffs(c)
        self.add_ints(comp, _muladd([], a, b), aden * bden)

    def add_form(self, form: "ClosedForm", c: Coefficient = 1) -> None:
        """Add c times every term of ``form``."""
        _coeffs(c)  # a foreign factor raises, also for a form with no terms
        for comp, poly in form._terms.items():
            self.add(comp, poly, c)

    def add_ints(self, comp: "tuple[int, ...]", nums, den: int, c=1) -> None:
        """Add the rational c times the polynomial with ascending
        coefficients nums / den, for ints nums and den > 0."""
        den *= c.denominator
        entry = self._rows.get(comp)
        if entry is None:
            entry = self._rows[comp] = [den, []]
        _muladd_over(entry, nums, den, c.numerator)

    def freeze(self) -> "ClosedForm":
        """The sum so far, with trailing zeros trimmed and zero rows dropped."""
        terms = {}
        for comp, (den, row) in self._rows.items():
            poly = _reduced(den, row)
            if poly:
                terms[comp] = poly
        out = ClosedForm.__new__(ClosedForm)
        object.__setattr__(out, "_terms", terms)
        return out


class ClosedForm:
    """Immutable map from proper compositions to polynomial coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: "Mapping | Iterable[tuple]" = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc = _Accumulator()
        for comp, coeff in items:
            comp = tuple(comp)
            if not is_proper(comp):
                raise ValueError(
                    "closed-form terms must use proper compositions (entries >= 1)"
                )
            acc.add(comp, coeff)
        object.__setattr__(self, "_terms", acc.freeze()._terms)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("ClosedForm is immutable")

    def __reduce__(self):
        # copy and pickle rebuild from the terms, as Polynomial does
        return ClosedForm, (self._terms,)

    # ---------------------------------------------------------------- access

    @classmethod
    def zero(cls) -> "ClosedForm":
        return cls()

    @classmethod
    def from_combination(cls, comb: "Mapping") -> "ClosedForm":
        """Embed a constant-coefficient combination of compositions."""
        return cls(comb)

    @property
    def terms(self) -> "tuple[tuple[tuple[int, ...], Polynomial], ...]":
        """Terms in canonical order (weight, depth, entries)."""
        return tuple(
            (comp, self._terms[comp])
            for comp in sorted(self._terms, key=composition_key)
        )

    def coefficient(self, comp: "tuple[int, ...]") -> Polynomial:
        return self._terms.get(tuple(comp), Polynomial.zero())

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ClosedForm):
            return NotImplemented
        return self._terms == other._terms

    __hash__ = None  # mutable-dict semantics: compare by value, do not hash

    def __repr__(self) -> str:
        return f"ClosedForm({self.render('text')!r})"

    # ------------------------------------------------------------ arithmetic

    def __add__(self, other: "ClosedForm") -> "ClosedForm":
        if not isinstance(other, ClosedForm):
            return NotImplemented
        acc = _Accumulator()
        acc.add_form(self)
        acc.add_form(other)
        return acc.freeze()

    def __neg__(self) -> "ClosedForm":
        return self.scale(-1)

    def __sub__(self, other: "ClosedForm") -> "ClosedForm":
        if not isinstance(other, ClosedForm):
            return NotImplemented
        return self + (-other)

    def scale(self, factor: Coefficient) -> "ClosedForm":
        """Multiply every coefficient by a polynomial or scalar."""
        acc = _Accumulator()
        acc.add_form(self, factor)
        return acc.freeze()

    # ------------------------------------------------------------ evaluation

    def eval(self, n: int) -> Fraction:
        """Exact value at upper limit n, using the direct evaluator for each
        basis composition."""
        return Fraction(*self._ratios(n, n)[0])

    def values(self, max_n: int) -> "list[Fraction]":
        """The list [C(0), C(1), ..., C(max_n)], reading each basis
        composition's values from one table of the direct evaluator."""
        return [Fraction(*ratio) for ratio in self._ratios(0, max_n)]

    def _ratios(self, lo: int, hi: int) -> "list[tuple[int, int]]":
        """C(lo), ..., C(hi) as int pairs (numerator, denominator > 0), not
        always in lowest terms, over L**W * D at each n (see the module
        docstring); a subrange gives the same pairs as the full range."""
        top = self._weight
        nums, den = self._numerators(lo, hi, top)
        dens = map(mul, _lcm_powers(lo, hi, top), repeat(den))
        return list(zip(nums, dens))

    @property
    def _weight(self) -> int:
        """W, the largest weight of a composition in the form (0 if none)."""
        return max(map(sum, self._terms), default=0)

    def _numerators(self, lo: int, hi: int, top: int) -> "tuple[list[int], int]":
        """(nums, D) with C(n) = nums[n - lo] / (L**top * D) at n = lo..hi,
        for any top >= W (see the module docstring)."""
        if not isinstance(hi, int) or hi < 0:
            raise ValueError("upper limit must be a nonnegative integer")
        size = hi + 1 - lo
        den = math.lcm(*[poly._den for poly in self._terms.values()])
        acc = None
        for comp, poly in self._terms.items():
            col = _column(poly._ints, den // poly._den, lo, size)
            col = map(mul, col, _scaled(lo, hi, comp, top))
            acc = list(col) if acc is None else list(map(add, acc, col))
        return ([0] * size if acc is None else acc), den

    # ------------------------------------------------------------- rendering

    def render(self, fmt: str = "text") -> str:
        if fmt == "json":
            return self.to_json()
        if fmt not in _FORMATS:
            raise ValueError(f"unknown format {fmt!r}")
        return join_signed([_term(c, p, fmt) for c, p in self.terms])

    # ---------------------------------------------------------------- JSON

    def to_json_obj(self) -> dict:
        return {"terms": [term_json_obj(comp, poly) for comp, poly in self.terms]}

    def to_json(self) -> str:
        """The text of ``json.dumps(self.to_json_obj())``, in one pass."""
        return '{"terms": [%s]}' % ", ".join([term_json(c, p) for c, p in self.terms])

    @classmethod
    def from_json(cls, text: str) -> "ClosedForm":
        """The form ``to_json`` wrote; every entry must be a JSON integer."""
        try:
            terms = {}
            for entry in json.loads(text)["terms"]:
                comp = tuple(_json_int(k) for k in entry["composition"])
                if comp in terms:
                    raise ValueError(f"composition {list(comp)} given twice")
                pairs = [(_json_int(a), _json_int(b)) for a, b in entry["coeff"]]
                terms[comp] = Polynomial([Fraction(a, b) for a, b in pairs])
            return cls(terms)
        except (
            ArithmeticError, KeyError, RecursionError, TypeError, ValueError
        ) as exc:
            raise ValueError(f"malformed closed-form JSON: {exc}") from exc


def _column(ints, scale: int, lo: int, size: int):
    """scale * P(n) at n = lo, ..., lo + size - 1, for P of degree d with the
    ascending int row ``ints``: Horner's scheme at the first d + 1 points,
    forward differences past them."""
    d = len(ints) - 1
    seeds = [_horner(ints, n) * scale for n in range(lo, lo + min(size, d + 1))]
    if size <= d + 1:
        return seeds
    for k in range(1, d + 1):  # seeds[k] becomes the k-th difference at lo
        seeds[k:] = map(sub, seeds[k:], seeds[k - 1 : -1])
    col = repeat(seeds.pop(), size - d)  # the d-th difference is constant
    for seed in reversed(seeds):
        col = accumulate(col, initial=seed)
    return col


def _json_int(value: object) -> int:
    # JSON numbers with a fraction or an exponent load as floats, and
    # booleans as an int subclass: neither is accepted as an integer
    if type(value) is not int:
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def term_json_obj(comp: "tuple[int, ...]", poly: Polynomial) -> dict:
    """One term as JSON: its composition and [numerator, denominator] pairs
    in lowest terms for the coefficients in ascending powers of n."""
    pairs = _lowest(poly._den, poly._ints)
    return {"composition": list(comp), "coeff": [list(pair) for pair in pairs]}


def term_json(comp: "tuple[int, ...]", poly: Polynomial) -> str:
    """The text of ``json.dumps(term_json_obj(comp, poly))``, written
    directly: one gcd per coefficient."""
    den, gcd = poly._den, math.gcd
    coeff = ", ".join([
        f"[{c}, {den}]" if (g := gcd(c, den)) == 1 else f"[{c // g}, {den // g}]"
        for c in poly._ints
    ])
    comp_text = ", ".join(map(str, comp))
    return f'{{"composition": [{comp_text}], "coeff": [{coeff}]}}'


def _term(comp: "tuple[int, ...]", poly: Polynomial, fmt: str) -> "tuple[str, str]":
    """(sign, body) of one term.  The bare polynomial sorts first and keeps
    its own signs; any other coefficient gives up an overall minus sign when
    none of its coefficients is positive."""
    den, ints = poly._den, poly._ints
    if not comp:
        return "+", _render(den, ints, "n", fmt)
    sign = "+"
    if all(c <= 0 for c in ints):
        sign, ints = "-", tuple(-c for c in ints)
    _, _, times, _, bracket, harmonic = _FORMATS[fmt]
    h = harmonic % ",".join(str(k) for k in comp)
    if fmt == "latex" and comp == (1,):
        h = "H_n"
    if den == 1 and ints == (1,):
        return sign, h
    body = _render(den, ints, "n", fmt)
    if sum(1 for c in ints if c) > 1:
        body = bracket % body
    return sign, body + times + h
