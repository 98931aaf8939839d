"""Exact closed forms for power-weighted sums of multiple harmonic sums.

The package reduces sums of the shape

    sum_{m=1}^{n} m^p * H_{m-1}(k_1, ..., k_r)

to polynomial-coefficient combinations of multiple harmonic sums at n, and
builds on that to evaluate sums like sum F(m) * H_{m-1}^t for polynomial
weights F.  All arithmetic is exact: ints over known denominators inside,
``fractions.Fraction`` at the public boundary.  Results are memoized for the
life of the process; ``clear_caches`` frees them.
"""

from fractions import Fraction

from . import bernoulli as _bernoulli
from . import oracle as _oracle
from .bernoulli import BernoulliTable, _bernoulli_ints, bernoulli, check_twoBs
from .bernoulli import umbral_eval
from .closedform import ClosedForm
from .oracle import _lcm_upto, harmonic, is_proper, mhs_eval, mhs_values
from .polynomial import Polynomial, discrete_sum
from .reducer import _c_poly, _faulhaber_rows, _reduce, c_poly
from .reducer import d_umbral, faulhaber, reduce, reduce_direct
from .stuffle import _expand_power, _stuffle, composition_key, expand_power
from .stuffle import product_combinations, stuffle
from .sums import (
    StructuredForm,
    StructureReport,
    structure_check,
    structured_form,
    structured_to_closed,
    sum_power,
    sum_power_shifted,
    sum_product,
)
from .verify import run_table, run_verify

__version__ = "0.1.0"

# the memos themselves, taken before anything can wrap the public names
_MEMOS = (
    faulhaber,
    _c_poly,
    _reduce,
    _faulhaber_rows,
    _bernoulli_ints,
    _stuffle,
    _expand_power,
    _lcm_upto,
)


def clear_caches() -> None:
    """Empty every memo and table: the eight ``lru_cache`` memos (four of
    the reducer, the Bernoulli numbers as ints, two of the stuffle and the
    oracle's lcm(1..n)), the oracle's tables, its lifted columns and its
    sieve of lcm steps (which closed-form evaluation reads too) and the
    shared Bernoulli table.  Lists are swapped for new ones, not cut, so a
    reader holding one keeps it whole.  Results stay the same; they are
    computed again when next needed."""
    for memo in _MEMOS:
        memo.cache_clear()
    with _oracle._lock:
        _oracle._cache.clear()
        _oracle._lifted = {}
        _oracle._steps = [1, 1]
    table = _bernoulli._SHARED
    with table._lock:
        table._minus = [Fraction(1)]


__all__ = [
    "BernoulliTable",
    "ClosedForm",
    "Polynomial",
    "StructureReport",
    "StructuredForm",
    "bernoulli",
    "c_poly",
    "check_twoBs",
    "clear_caches",
    "composition_key",
    "d_umbral",
    "discrete_sum",
    "expand_power",
    "faulhaber",
    "harmonic",
    "is_proper",
    "mhs_eval",
    "mhs_values",
    "product_combinations",
    "reduce",
    "reduce_direct",
    "run_table",
    "run_verify",
    "structure_check",
    "structured_form",
    "structured_to_closed",
    "stuffle",
    "sum_power",
    "sum_power_shifted",
    "sum_product",
    "umbral_eval",
]
