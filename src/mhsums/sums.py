"""Closed forms for weighted sums of powers and products of harmonic numbers.

``sum_power`` turns sum_{m=1..n} F(m) * H_{m-1}**t into a flat closed form
by the reducer's summation by parts (``reducer._by_parts``) on the power
itself; ``sum_product`` does the same over products of depth-one sums,
e.g. H_{m-1} * H_{m-1}(2).  A state of ``_levels`` is the vector v of
multiplicities per distinct order k_i: the product of the H(k_i)**v_i.
Since H_m(k) = H_{m-1}(k) + m**-k, that product at m less its value at
m - 1 sums, over every w < v, prod_i C(v_i, w_i) m**-J times the product
for w at m - 1, with J = sum_i k_i (v_i - w_i).  So the edge from v to w
carries -prod_i C(v_i, w_i) and J.  The states run in descending
lexicographic order, one power sum each: t + 1 for H**t instead of one
walk per composition of the expanded power.  The walk writes v's power
sum under the key v and its tails c m**-r under (r,) + v.  One expander,
``_Products``, flattens every H_n-power product here (the levels,
``structured_to_closed``, and the F(n) H_n**t terms of ``sum_power_shifted``
and ``structure_check``): it puts a key's head before each composition of
its state's product, which the stuffle expands once per state, from the
state without its last order, as int pairs (``stuffle._expand_power`` and
``stuffle._product``).  Each composition's row goes straight into the
accumulator: a new row is c times the block's ints over its denominator, and
a row already there merges by one ``_muladd_over``.  The products live as
long as the request; a memo of them for the life of the process would keep
every request's products.
``sum_power_shifted`` handles the H_m (unshifted-argument) variant via
sum_{m=0..n} F(m) H_m**t = F(n) H_n**t + sum_{m=1..n} F(m-1) H_{m-1}**t.

``structured_form`` produces the presentations with explicit H_n-power
blocks (squares, cubes, the H*H(2) product, and fourth powers with a general
polynomial weight), assembled directly from the coefficient polynomials and
umbral values.  Each kind is one entry of one table, ``_BLOCKS``: its shape
and its (factor, term) pairs per block.  ``_blocks`` adds every term into one
int row per block, a c_poly row or a constant as a one-entry row, each by one
``_muladd_over`` with the int factor a * factor for the weight's numerator a,
and reduces each row once.  ``structured_to_closed`` flattens such a
presentation so the two routes can be compared structurally.
``structure_check`` verifies the general shape of the remainder after
removing the leading S_n(F) * H_n**t block: depth below t and coefficient
degree at most deg(F) + 1.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .bernoulli import bernoulli, umbral_eval
from .closedform import ClosedForm, _Accumulator
from .polynomial import Polynomial, _muladd_over, _reduced, discrete_sum
from .reducer import _by_parts, _c_poly, _check_power, d_umbral, faulhaber
from .stuffle import _expand_power, _product

__all__ = [
    "sum_power",
    "sum_power_shifted",
    "sum_product",
    "StructuredForm",
    "structured_form",
    "structured_to_closed",
    "StructureReport",
    "structure_check",
]


def _check_weight(F: Polynomial) -> None:
    if not isinstance(F, Polynomial):
        raise TypeError("the weight must be a Polynomial")


def sum_power(F: Polynomial, t: int) -> ClosedForm:
    """Closed form of sum_{m=1..n} F(m) * H_{m-1}**t."""
    out = _Accumulator()
    _power_levels(out, F, t)
    return out.freeze()


def _power_levels(out: _Accumulator, F: Polynomial, t: int) -> None:
    """Add sum_{m=1..n} F(m) * H_{m-1}**t to ``out``."""
    _check_weight(F)
    if not isinstance(t, int) or t < 0:
        raise ValueError("the power must be a nonnegative integer")
    _levels(out, F, ((1, t),))


def sum_power_shifted(F: Polynomial, t: int) -> ClosedForm:
    """Closed form of sum_{m=0..n} F(m) * H_m**t."""
    _check_weight(F)
    out = _Accumulator()
    _power_levels(out, F.shift(-1), t)
    _Products(out, (1,)).add_ints((t,), F._ints, F._den)
    return out.freeze()


def sum_product(F: Polynomial, factors: "list[tuple[int, int]]") -> ClosedForm:
    """Closed form of sum_{m=1..n} F(m) * prod_i H_{m-1}(order_i)**mult_i.

    ``factors`` lists (order, multiplicity) pairs; repeated orders merge.
    """
    _check_weight(F)
    powers: "dict[int, int]" = {}
    for order, mult in factors:
        if type(order) is not int or order < 1:
            raise ValueError("factor orders must be positive integers")
        if not isinstance(mult, int) or mult < 1:
            raise ValueError("factor multiplicities must be positive integers")
        powers[order] = powers.get(order, 0) + mult
    out = _Accumulator()
    _levels(out, F, tuple(powers.items()))
    return out.freeze()


def _levels(out: _Accumulator, weight: Polynomial, powers) -> None:
    """Add sum_{m=1..n} G(m) * prod_i H_{m-1}(k_i)**e_i to ``out``, for G =
    ``weight`` and ``powers`` the pairs (k_i, e_i) of distinct orders."""
    orders = [k for k, _ in powers]
    # descending lexicographic order: every state comes before those below it
    states = list(itertools.product(*(range(e, -1, -1) for _, e in powers)))

    def edges(v):
        for w in itertools.product(*(range(e + 1) for e in v)):
            if w != v:
                J = sum(k * (a - b) for k, a, b in zip(orders, v, w))
                yield w, -math.prod(map(math.comb, v, w)), J

    K = sum(k * e for k, e in powers)  # the J of the edge from the top to 0
    _by_parts(_Products(out, orders), weight, states, edges, K)


class _Products:
    """``out`` seen through the stuffle: the key head + v, for v as long as
    ``orders``, stands for head + c for each c of prod_i H(orders[i])**v_i."""

    def __init__(self, out: _Accumulator, orders):
        self._out, self._orders = out, orders
        self._combs = {(0,) * len(orders): (((), 1),)}  # state -> int product

    def add_ints(self, key, nums, den: int) -> None:
        cut = len(key) - len(self._orders)
        head, rows = key[:cut], self._out._rows
        for comp, c in self._comb(key[cut:]):
            comp = head + comp
            entry = rows.get(comp)
            if entry is None:  # written, not merged into an empty row: faster levels
                rows[comp] = [den, [c * x for x in nums]]
            else:
                _muladd_over(entry, nums, den, c)

    def _comb(self, v):
        if v not in self._combs:
            i = max(i for i, e in enumerate(v) if e)  # v's last order
            comb = _expand_power(self._orders[i], v[i])
            rest = v[:i] + (0,) * (len(v) - i)
            if any(rest):  # the state without its last order, times this
                comb = tuple(_product(self._comb(rest), comb).items())
            self._combs[v] = comb
        return self._combs[v]


# --------------------------------------------------------------- structured


class _Record:
    """An immutable record of the fields named by ``__slots__``: equality,
    hash and repr over the fields, as a frozen dataclass writes them, and
    copy and pickle by its constructor.  Not a tuple, so it never reads as
    one."""

    __slots__ = ()

    def _fill(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), self._values()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class StructuredForm(_Record):
    """A closed form grouped into explicit harmonic-number blocks.

    ``leading`` multiplies H_n**power times the depth-one factors in
    ``extra_orders``; q[i] multiplies H_n**i; ``c2``, ``c21`` and ``c3``
    multiply H_n(2), H_n(2,1) and H_n(3).
    """

    __slots__ = ("power", "extra_orders", "leading", "q", "c2", "c21", "c3")

    def __init__(
        self,
        power: int,
        extra_orders: "tuple[int, ...]",
        leading: Polynomial,
        q: "tuple[Polynomial, ...]",
        c2: Polynomial,
        c21: Fraction,
        c3: Fraction,
    ):
        self._fill(power, extra_orders, leading, q, c2, c21, c3)


def _derivative_umbral(p: int) -> Fraction:
    """The umbral value of 2 D' + 6 (D - B_p) / x for D = faulhaber(p) / x."""
    # D's coefficient D_k of x**k is faulhaber's of x**(k + 1), and D_0 = B_p,
    # so the sum has (2 k + 8) D_{k+1} at x**k
    S = faulhaber(p)
    row = [(2 * k + 8) * c for k, c in enumerate(S._ints[2:])]
    return umbral_eval(_reduced(S._den, row))


# The constants of the structured forms at the power p, with plus-convention
# Bernoulli numbers; a factor vanishes where the Bernoulli index would be
# negative.
_CONSTANTS = {
    "B/2": lambda p: bernoulli(p, "plus") / 2,
    "pB/2": lambda p: p * bernoulli(p - 1, "plus") / 2 if p else Fraction(0),
    "ppB/6": lambda p: (
        p * (p - 1) * bernoulli(p - 2, "plus") / 6 if p > 1 else Fraction(0)
    ),
    "U": d_umbral,
    "U0": lambda p: d_umbral(p, (0,)),
    "dU": _derivative_umbral,
}

# Each structured form as (power, extra_orders, blocks), its blocks as
# (factor, term) pairs: a tuple of subscripts stands for c_poly(p,
# subscripts), a name for that constant of ``_CONSTANTS``.  With
# F = sum_p a_p m**p, a block is the sum over p of a_p * sum factor * term;
# the last block is c2, those before it q[0], q[1], ...  ``leading`` is F's
# power sum.
_BLOCKS = {
    "hn2": (
        2,
        (),
        (
            ((2, (0, 0)), (-1, (1,))),
            ((-2, (0,)), (-2, "B/2")),
            (),
        ),
    ),
    "hn3": (
        3,
        (),
        (
            ((-6, (0, 0, 0)), (3, (0, 1)), (3, (1, 1)), (-1, (2,))),
            ((6, (0, 0)), (3, "U"), (-3, (1,)), (-1, "pB/2")),
            ((-3, (0,)), (-3, "B/2")),
            ((1, "B/2"),),
        ),
    ),
    "mixed": (
        1,
        (2,),
        (
            ((1, (0, 1)), (1, (1, 1)), (-1, (2,))),
            ((1, "U"), (-1, (1,)), (-1, "pB/2")),
            ((-1, "B/2"),),
            ((-1, (0,)), (-1, "B/2")),
        ),
    ),
    "hn4": (
        4,
        (),
        (
            (
                (24, (0, 0, 0, 0)),
                (-12, (0, 0, 1)),
                (-12, (0, 1, 1)),
                (-12, (1, 1, 1)),
                (4, (0, 2)),
                (6, (1, 2)),
                (4, (2, 2)),
                (-1, (3,)),
            ),
            (
                (-24, (0, 0, 0)),
                (12, (0, 1)),
                (12, (1, 1)),
                (-4, (2,)),
                (-12, "U0"),
                (1, "dU"),
                (-1, "ppB/6"),
            ),
            ((12, (0, 0)), (-6, (1,)), (6, "U"), (-2, "pB/2")),
            ((-4, (0,)), (-4, "B/2")),
            # the depth-one block collapses to a constant: -6 + 4 copies of
            # the same umbral value plus the guarded Bernoulli correction
            ((-2, "U"), (1, "pB/2")),
        ),
    ),
}


def structured_form(kind: str, arg) -> StructuredForm:
    """Explicit block presentation of one of the supported sums.

    kind "hn2":   sum m**p * H_{m-1}**2            (arg: p)
    kind "hn3":   sum m**p * H_{m-1}**3            (arg: p)
    kind "mixed": sum m**p * H_{m-1} * H_{m-1}(2)  (arg: p)
    kind "hn4":   sum F(m) * H_{m-1}**4            (arg: Polynomial F)
    """
    if kind not in _BLOCKS:
        raise ValueError(f"unknown structured kind {kind!r}")
    if kind == "hn4":
        _check_weight(arg)
        weight, den, leading = list(enumerate(arg._ints)), arg._den, discrete_sum(arg)
        c3 = umbral_eval(arg, "plus")
    else:
        _check_power(arg)
        weight, den, leading, c3 = [(arg, 1)], 1, faulhaber(arg), Fraction(0)
    power, extra_orders, table = _BLOCKS[kind]
    *q, c2 = _blocks(table, weight, den)
    # only hn4 has a depth-two tail: F's umbral value under H_n(3), twice it
    # under H_n(2, 1)
    return StructuredForm(power, extra_orders, leading, tuple(q), c2, 2 * c3, c3)


def _blocks(table, weight, den: int) -> "list[Polynomial]":
    """Each block of ``table`` for the weight with the coefficients a / den
    of m**p, for the pairs (p, a) of ``weight``: one int row per block, each
    term added by one ``_muladd_over``, and one ``_reduced`` at the end."""
    entries = [[1, []] for _ in table]
    for p, a in weight:
        if not a:
            continue
        constants: "dict[str, Fraction]" = {}
        for entry, terms in zip(entries, table):
            for factor, term in terms:
                if isinstance(term, tuple):
                    # the table's subscripts are valid and at most four deep
                    poly = _c_poly(p, term)
                    nums, tden = poly._ints, poly._den
                else:
                    if term not in constants:
                        constants[term] = _CONSTANTS[term](p)
                    value = constants[term]
                    nums, tden = (value.numerator,), value.denominator
                _muladd_over(entry, nums, tden, a * factor)
    return [_reduced(D * den, row) for D, row in entries]


def structured_to_closed(form: StructuredForm) -> ClosedForm:
    """Flatten a structured presentation into the basis of compositions."""
    if not isinstance(form, StructuredForm):
        raise TypeError("structured_to_closed takes a StructuredForm")
    out = _Accumulator()
    blocks = _Products(out, (1,) + form.extra_orders)
    ones = (1,) * len(form.extra_orders)
    blocks.add_ints((form.power,) + ones, form.leading._ints, form.leading._den)
    for i, qi in enumerate(form.q):
        if qi:
            blocks.add_ints((i,) + (0,) * len(ones), qi._ints, qi._den)
    out.add_form(ClosedForm({(2,): form.c2, (2, 1): form.c21, (3,): form.c3}))
    return out.freeze()


# ------------------------------------------------------------------- checks


class StructureReport(_Record):
    """Result of the remainder-shape check for one (weight, power) pair."""

    __slots__ = ("passes", "offending_terms")

    def __init__(
        self,
        passes: bool,
        offending_terms: "tuple[tuple[tuple[int, ...], Polynomial], ...]",
    ):
        self._fill(passes, offending_terms)


def structure_check(F: Polynomial, t: int) -> StructureReport:
    """Verify that sum_{m=1..n} F(m) H_{m-1}**t minus S_n(F) * H_n**t only
    contains terms of depth below t with coefficient degree <= deg(F) + 1."""
    out = _Accumulator()
    _power_levels(out, F, t)
    S = -discrete_sum(F)
    _Products(out, (1,)).add_ints((t,), S._ints, S._den)
    remainder = out.freeze()
    degree_bound = F.degree + 1
    offending = tuple(
        (comp, poly)
        for comp, poly in remainder.terms
        if len(comp) >= t or poly.degree > degree_bound
    )
    return StructureReport(passes=not offending, offending_terms=offending)
