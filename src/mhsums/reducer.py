"""Rewrites power-weighted harmonic sums as closed forms over proper sums.

The quantity handled here is sum_{m=1..n} G(m) * X(m-1) for a polynomial
weight G and a combination X of multiple harmonic sums: ``reduce`` takes
G = m**p and X = H(k_1, ..., k_r), the extended sum with leading index -p,
and ``mhsums.sums`` powers and products of depth-one sums.  All of them run
one summation by parts, ``_by_parts``, over states v, each a tuple of ints
standing for a combination X_v of harmonic sums.  An edge (w, factor, J)
from v says that X_v(m) - X_v(m-1) holds -factor * m**-J * X_w(m-1).  With
S = s_1 x + s_2 x**2 + ... the power sum of v's weight G,

    sum G(m) X_v(m-1) = S(n) X_v(n) + sum_edges factor * sum S(m) m**-J X_w(m-1).

So S(m) m**-J joins w's weight, a Laurent polynomial in m kept as one row
of ints over one denominator: the weight times m**K, with K the largest J
of any edge.  At w, the row's entries from K on are summed by parts again,
and each entry c m**-r below them, a tail, sums to c times
sum_{m<=n} m**-r X_w(m-1).  So the walk writes two keys per state: S under
v, and each tail c under (r,) + v.  The states come top first and the step
is linear in the weight, so all paths into a state merge into one row and
one power sum; no coefficient degree exceeds deg(G) + 1.  For ``reduce``
the states are the suffixes comp[i:], with one edge from (k, c) to c:
factor -1 and J = k; X_v is H(v), so both keys are compositions.

``reduce_direct`` computes the same closed form in a single pass from the
fully unrolled three-block summation formula and exists purely as an
independent cross-check; the summation by parts is authoritative.  The
states of its l-th step depend only on p and the prefix comp[:l-1]: they are
the row of c_poly(p, (a_2, ..., a_l)) with a_{i+1} = k_1 + ... + k_i - i,
so ``reduce_direct`` reads that memoized row, prefixes shortest first, and
compositions that share a prefix share its chain with each other and with
the structured forms.
One reading note on the unrolled formula: in the leading (polynomial times
tail) block, the last summation index of the l-th term ranges over the full
current degree budget -- as if that block's final composition entry were 1
-- for every l, not only for l = r.  This is the reading consistent with
``reduce``; agreement of the two paths is enforced by the tests and by
``reduce --method both`` on the command line.

``c_poly`` builds the coefficient polynomials that appear in the leading
blocks: for nonnegative subscripts a_2 <= ... <= a_r (an empty subscript list
reproduces Faulhaber's polynomial) it sums, over all nonnegative j_1..j_r
with j_1 + ... + j_r <= p - a_r, the product of Bernoulli-weighted binomial
factors C(p+1-a_i-j_1-...-j_{i-1}, j_i) * B_{j_i} / (p+1-a_i-j_1-...-j_{i-1})
times x**(p+1-a_r-j_1-...-j_r), with a_1 = 0 implicit.  Every exponent in the
result is at least 1.  ``d_umbral`` is the umbral Bernoulli value of such a
polynomial divided by x.

``c_poly`` and ``reduce_direct`` run the same factor chain through one
helper, ``_chain_step``.  Each factor depends on the earlier j's only through
their sum, so the chain keeps one merged state per partial sum instead of
listing every j-tuple; the cost is polynomial in p and the depth.  Each
``c_poly`` chain is one step on its parent's, the chain of (a_2, ..., a_{r-1}):
state s is the parent's memoized coefficient of x**(p + 1 - a_{r-1} - s),
exact since a step's states up to a budget do not depend on a larger one.
``c_poly`` builds the prefixes shortest first, so no call recurses deeper.
``faulhaber`` builds its factors on its own, and the summation by parts
behind ``reduce`` reads them from Faulhaber's polynomials; neither uses the
chain helper, so that the two reduction routes stay independent checks of
each other.  Both routes sum their terms in the closed-form accumulator,
which holds no reduction logic.

Where the time goes, the arithmetic runs on integers over one denominator.
The chain's states are int numerators over a shared denominator; each step
reads B_0..B_h once, as ints over their lcm (``bernoulli._bernoulli_ints``,
re-exported here), the one table that ``faulhaber`` and umbral evaluation
read too.  ``c_poly`` and ``faulhaber`` hand their rows to
``Polynomial`` as they are; ``reduce_direct`` adds its states to the
accumulator as ints, and the walk its power sums (``_power_sum``).  A power
sum of degree d reads one memoized table, ``_faulhaber_rows(d)``: Faulhaber's
rows for every q <= d as ints over their lcm, so a weight's power sum is
g * row q added for each nonzero g and reduced by one gcd.  The table
holds ``faulhaber``'s own rows, not the chain helper's.  Every edge into a
state merges factor * S into its row.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

from .bernoulli import _bernoulli_ints, umbral_eval
from .closedform import ClosedForm, _Accumulator
from .oracle import is_proper
from .polynomial import Polynomial, _muladd_over, _new, _reduced

__all__ = ["faulhaber", "c_poly", "d_umbral", "reduce", "reduce_direct"]


def _check_power(p: int) -> None:
    if not isinstance(p, int) or p < 0:
        raise ValueError("the power weight must be a nonnegative integer")


@lru_cache(maxsize=None)
def faulhaber(p: int) -> Polynomial:
    """The power-sum polynomial: faulhaber(p)(n) = 1**p + 2**p + ... + n**p.

    Built with plus-convention Bernoulli numbers,
    (1/(p+1)) * sum_{j=0..p} C(p+1, j) * B_j * x**(p+1-j).
    """
    _check_power(p)
    bden, brow = _bernoulli_ints(p)
    ints = [0] * (p + 2)
    for j, b in enumerate(brow):
        ints[p + 1 - j] = math.comb(p + 1, j) * b
    return _reduced((p + 1) * bden, ints)


def c_poly(p: int, index: "tuple[int, ...]" = ()) -> Polynomial:
    """Leading-block coefficient polynomial for power p and subscripts
    ``index`` = (a_2, ..., a_r).  An unsatisfiable constraint region yields
    the zero polynomial.  ``c_poly(p)`` equals ``faulhaber(p)``."""
    _check_power(p)
    index = tuple(index)
    if not all(isinstance(a, int) and a >= 0 for a in index):
        raise ValueError("subscripts must be nonnegative integers")
    if any(b < a for a, b in zip(index, index[1:])):
        raise ValueError("subscripts must be weakly increasing")
    for i in range(len(index)):  # the prefixes first: no call recurses deeper
        _c_poly(p, index[:i])
    return _c_poly(p, index)


def _chain_step(
    states: "dict[int, int]", den: int, d: int, h: int
) -> "tuple[dict[int, int], int]":
    """One step of the Bernoulli-weighted binomial chain, on integers.

    ``states`` maps a partial sum s = j_1 + ... + j_i to the numerator, over
    the shared denominator ``den``, of the summed factor products that reach
    it.  The step multiplies state s by C(d - s, j) * B_j / (d - s) for
    0 <= j <= h - s and merges the products by s + j.  Later steps see only
    the partial sum, so merging is exact.  Each state is scaled by
    L / (d - s), with L the lcm of the live d - s, and B_0..B_h are read once
    as integers over their lcm ``bden``; so the new states are ints over
    ``den * L * bden``, left unreduced for the caller's one ``_reduced``.
    """
    out: "dict[int, int]" = {}
    if h < 0:
        return out, den
    bden, brow = _bernoulli_ints(h)
    lcm = math.lcm(*[d - s for s in states if s <= h])
    for s, acc in states.items():
        dd = d - s
        # every caller keeps h < d, so a factor is only ever taken with dd >= 1
        assert s > h or dd > 0
        if s <= h:
            acc *= lcm // dd
            for j in range(h - s + 1):
                b = brow[j]
                if b:
                    out[s + j] = out.get(s + j, 0) + acc * math.comb(dd, j) * b
    return out, den * lcm * bden


@lru_cache(maxsize=None)
def _c_poly(p: int, index: "tuple[int, ...]") -> Polynomial:
    subs = (0,) + index
    top = p + 1 - subs[-1]
    states, den = {0: 1}, 1
    if index:  # the parent's chain, read back from its polynomial
        parent = _c_poly(p, index[:-1])
        up, row = p + 1 - subs[-2], parent._ints
        live = [s for s in range(top) if up - s < len(row) and row[up - s]]
        states, den = {s: row[up - s] for s in live}, parent._den
    states, den = _chain_step(states, den, p + 1 - subs[-1], top - 1)
    ints = [0] * (top + 1)
    for s, acc in states.items():
        ints[top - s] = acc
    return _reduced(den, ints)


def d_umbral(p: int, index: "tuple[int, ...]" = ()) -> Fraction:
    """Umbral Bernoulli value (plus convention) of c_poly(p, index) / x."""
    return umbral_eval(c_poly(p, index).divide_x(), "plus")


def reduce(p: int, comp: "tuple[int, ...]" = ()) -> ClosedForm:
    """Closed form of sum_{m=1..n} m**p * H_{m-1}(comp).

    The empty composition gives the bare power sum {() -> faulhaber(p)}.
    """
    _check_power(p)
    comp = tuple(comp)
    if not is_proper(comp):
        raise ValueError("composition must be proper (all entries >= 1)")
    return _reduce(p, comp)


@lru_cache(maxsize=None)
def _reduce(p: int, comp: "tuple[int, ...]") -> ClosedForm:
    states = [comp[i:] for i in range(len(comp) + 1)]
    edges = lambda s: ((s[1:], -1, s[0]),) if s else ()
    out = _Accumulator()
    # m**p as its canonical row
    _by_parts(out, _new(1, (0,) * p + (1,)), states, edges, max(comp, default=0))
    return out.freeze()


# Faulhaber's rows for every q <= d, the one table of the walk's weights of
# degree d: row q holds faulhaber(q)'s coefficients of x**1, ..., x**(q + 1)
# (its constant term is 0) as ints over the lcm of the rows' denominators.
# The tables for every d <= 101 (cli.MAX_DEGREE + 1) hold about 6.5 MB.
@lru_cache(maxsize=None)
def _faulhaber_rows(d: int) -> "tuple[int, tuple[tuple[int, ...], ...]]":
    polys = [faulhaber(q) for q in range(d + 1)]
    fden = math.lcm(*[poly._den for poly in polys])
    return fden, tuple(
        tuple([c * (fden // poly._den) for c in poly._ints[1:]]) for poly in polys
    )


def _power_sum(G: "list[int]", den: int) -> "tuple[list[int], int]":
    """The power sum of the weight with ascending coefficients G / den, for
    ints G, from Faulhaber's polynomials: its ascending coefficients as ints
    over one denominator, ``(S, den)``, reduced by one gcd."""
    terms = [(q, g) for q, g in enumerate(G) if g]
    if not terms:
        return [], 1
    top = terms[-1][0]
    fden, rows = _faulhaber_rows(top)
    total = [0] * (top + 2)
    for q, g in terms:
        for i, c in enumerate(rows[q], 1):
            total[i] += g * c
    den *= fden
    g = math.gcd(den, *total)
    if g > 1:
        total = [t // g for t in total]
    return total, den // g


def _by_parts(out, weight: Polynomial, states, edges, K) -> None:
    """Add sum_{m=1..n} G(m) * X(m-1) to ``out`` for G = ``weight`` and X of
    ``states[0]``: S under each v, each tail c m**-r under (r,) + v.  ``K``,
    the largest J of any edge, keeps every weight times m**K a polynomial."""
    # state -> [den, ints]: its weight times m**K, ascending over den, so
    # entry i is the coefficient of m**(i - K); those below K are its tails
    rows = {states[0]: [weight._den, [0] * K + list(weight._ints)]}
    for v in states:
        den, G = rows.pop(v, (1, ()))
        for i, c in enumerate(G[:K]):
            if c:
                out.add_ints((K - i,) + v, (c,), den)
        if not any(G[K:]):
            continue
        S, den = _power_sum(G[K:], den)
        out.add_ints(v, S, den)
        for w, factor, J in edges(v):
            _muladd_over(rows.setdefault(w, [den, []]), [0] * (K - J) + S, den, factor)


def reduce_direct(p: int, comp: "tuple[int, ...]") -> ClosedForm:
    """Same closed form as ``reduce`` from the single-pass three-block
    formula, each step's chain the memoized ``c_poly`` row of its prefix,
    read shortest first so that no call recurses deeper; no reduction logic
    is shared with ``reduce``."""
    _check_power(p)
    comp = tuple(comp)
    if not comp:
        raise ValueError("the direct formula needs a nonempty composition")
    if not is_proper(comp):
        raise ValueError("composition must be proper (all entries >= 1)")

    ks = comp + (1,)  # the final, absorbed entry counts as 1
    # the subscripts a_2, ..., a_{r+1}: a_{i+1} = k_1 + ... + k_i - i
    index = tuple(accumulate(k - 1 for k in comp))
    out = _Accumulator()
    for l in range(1, len(ks) + 1):
        sign = -1 if l % 2 else 1  # (-1)**l
        # the chain over j_1, ..., j_l is c_poly(p, (a_2, ..., a_l)): state s
        # is its coefficient of x**(p + 1 - a_l - s)
        poly = _c_poly(p, index[: l - 1])
        row, den = poly._ints, poly._den
        # leading block: polynomial coefficient times H(k_l, ..., k_r); at
        # l = r + 1 this is the final, pure polynomial block
        out.add_ints(comp[l - 1 :], row, den, -sign)
        # a coefficient of x**i with i < k_l is a partial sum past the next
        # step's budget: it drops the first entry to k_l - i (middle block)
        for i, c in enumerate(row[: ks[l - 1]]):
            if c:
                out.add_ints((ks[l - 1] - i,) + comp[l:], (c,), den, sign)
    return out.freeze()
