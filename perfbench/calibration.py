"""A fixed piece of reference work that measures the machine's current speed.

On a shared VM other tenants change how fast the same code runs, by a fifth
or more, over seconds and over minutes.  The worker times this reference
work before every item and after the last one.  run.py scales each item's
latency by how fast the reference ran around it, so that times from a slow
period and a fast one compare.  The work does not use mhsums.
"""

import gc
from fractions import Fraction
from time import perf_counter

NOMINAL_S = 0.0008  # about the reference's typical time on a shared 2-vCPU VM; scaled times assume it
_SIZE = 12


def _work() -> Fraction:
    # Products and sums of polynomials with Fraction coefficients, the kind
    # of arithmetic mhsums spends its time on.
    a = [Fraction(i + 1, 2 * i + 3) for i in range(_SIZE)]
    prod = [Fraction(0)] * (2 * _SIZE)
    for i, x in enumerate(a):
        for j, y in enumerate(a):
            prod[i + j] += x * y
    return sum(prod)


def reference_time() -> float:
    """Seconds the reference work takes now.  The collector is paused, so the
    program's heap does not add to it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _work()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()
