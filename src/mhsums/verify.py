"""Verification suites and the comparison table behind the command line.

Each suite is a list of (label, check) pairs; a check returns (ok, detail).
Results print one line per identity in a fixed order, and the overall
status is 0 only when everything passed.  All random choices are seeded, so
repeated runs are byte-identical.

The oracle checks compare numerators over one known denominator.  A direct
side is (nums, w, den): its value at n is nums[n] / (den * L(n)**w), with
L(n) = lcm(1..n).  For ``reduce`` these are the oracle's own numerators of
(-p,) + comp (``oracle._scaled``), with w = sum(comp) and den = 1.  For the
sums they are running sums of F(m) times a product of powers of harmonic
sums, built from the oracle's numerators, with den = den(F) and w the weight
of the product: each step multiplies the running sum by the oracle's sieve
step r_m**w and adds one term, with no gcd or lcm (``_direct_weighted_sum``).
The closed form gives its numerators over L(n)**top * D for top, the larger
of w and its own largest weight (``ClosedForm._numerators``), from the
oracle's numerators already lifted to L(n)**top (``oracle._scaled``); the
direct numerators are lifted by the column of L(n)**(top - w) from the
oracle (``oracle._lcm_powers``) when the form's weight is the larger.  A
check then compares got[n] * den with nums[n] * D, one product of a big and
a small int per side and n, and builds two ``Fraction``s only to print a
failure.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import repeat
from operator import eq, mul

from .closedform import ClosedForm
from .oracle import _lcm_powers, _lcm_upto, _pair, _scaled, _steps_upto
from .polynomial import Polynomial, _horner
from .reducer import reduce, reduce_direct
from .stuffle import composition_key
from .sums import (
    structure_check,
    structured_form,
    structured_to_closed,
    sum_power,
    sum_power_shifted,
    sum_product,
)

__all__ = ["compositions_up_to", "form_mismatch", "run_verify", "run_table", "SUITES"]

SUITES = ("reduce", "sums", "all")

_FIXED_WEIGHTS = (
    Polynomial.constant(1),
    Polynomial.variable(),
    Polynomial((0, 0, 1)),
    Polynomial((-1, 2)),
    Polynomial((2, -5, 3)),
)


def compositions_up_to(
    max_weight: int, max_depth: "int | None" = None, include_empty: bool = True
) -> "list[tuple[int, ...]]":
    """All proper compositions with the given weight (and depth) bounds, in
    canonical order."""
    if max_depth is None:
        max_depth = max_weight
    out = [()] if include_empty else []

    def grow(prefix: "tuple[int, ...]", remaining: int, depth_left: int) -> None:
        if depth_left == 0:
            return
        for k in range(1, remaining + 1):
            comp = prefix + (k,)
            out.append(comp)
            grow(comp, remaining - k, depth_left - 1)

    grow((), max_weight, max_depth)
    out.sort(key=composition_key)
    return out


def _comp_str(comp: "tuple[int, ...]") -> str:
    return "(" + ",".join(str(k) for k in comp) + ")"


def form_mismatch(a: ClosedForm, b: ClosedForm) -> "tuple[str, str] | None":
    """None when a and b are equal; otherwise two report lines: the
    compositions whose coefficients differ (from a - b), and whether the
    evaluations for n <= 50 agree."""
    if a == b:
        return None
    differ = ", ".join(_comp_str(comp) for comp, _ in (a - b).terms)
    agree = a.values(50) == b.values(50)
    return (
        f"compositions whose coefficients differ: {differ}",
        f"evaluations for n <= 50 {'agree' if agree else 'differ'}",
    )


def _forms_agree(what: str, a: ClosedForm, b: ClosedForm):
    mismatch = form_mismatch(a, b)
    return (True, "") if mismatch is None else (False, "; ".join((what, *mismatch)))


def _matches_direct(closed: ClosedForm, direct, max_n: int):
    """Compare the closed form's value with ``direct`` = (nums, w, den), the
    values nums[n] / (den * L(n)**w) for L(n) = lcm(1..n), at n = 0..max_n:
    both sides are brought to numerators over L(n)**top, top the larger
    weight, and each is multiplied by the other's constant denominator.
    max_n = 0 means "check nothing", an explicitly empty evaluation range."""
    if max_n > 0:
        nums, w, den = direct
        top = max(w, closed._weight)
        got, D = closed._numerators(0, max_n, top)
        if top > w:  # lift the direct side to L(n)**top
            nums = list(map(mul, nums, _lcm_powers(0, max_n, top - w)))
        same = list(map(eq, map(mul, got, repeat(den)), map(mul, nums, repeat(D))))
        if not all(same):
            n = same.index(False)
            scale = _lcm_upto(n) ** top
            got, want = Fraction(got[n], scale * D), Fraction(nums[n], scale * den)
            return False, f"n={n}: closed {got} != direct {want}"
    return True, ""


def _direct_weighted_sum(F: Polynomial, factors, max_n: int, start: int):
    """Running values of sum_{m=start..n} F(m) * prod H_{m-start}(comp)**e
    over the (composition, exponent) pairs ``factors`` of proper
    compositions, as (nums, w, den) for ``_matches_direct``: the value at n
    is nums[n] / (den(F) * L(n)**w), for n = 0..max_n and w the weight of
    the product.  Each term is F's row at m times the oracle's numerators,
    over L(m - start)**w; with start = 1 the step at m brings the sum up to
    L(m)**w by r_m**w."""
    row = F._ints
    tables = [(_scaled(0, max_n, comp, sum(comp)), e) for comp, e in factors]
    w = sum(sum(comp) * e for comp, e in factors)
    steps = _steps_upto(max_n)
    nums = [0] * start
    acc = 0
    for m in range(start, max_n + 1):
        term = _horner(row, m)
        for values, e in tables:
            term *= values[m - start] ** e
        r = steps[m]
        if r == 1:
            acc += term
        elif start:
            acc = (acc + term) * r**w
        else:
            acc = acc * r**w + term
        nums.append(acc)
    return nums, w, F._den


def _check_max_n(max_n: int) -> None:
    if not isinstance(max_n, int) or max_n < 0:  # as the oracle refuses it
        raise ValueError("upper limit must be a nonnegative integer")


def reduce_suite_checks(max_n: int):
    _check_max_n(max_n)
    checks = []
    comps = compositions_up_to(5, 3)
    for p in range(7):
        for comp in comps:

            def check(p=p, comp=comp):
                w = sum(comp)
                direct = _scaled(0, max_n, (-p,) + comp, w), w, 1
                return _matches_direct(reduce(p, comp), direct, max_n)

            checks.append((f"reduce p={p} comp={_comp_str(comp)} oracle", check))
    for p in range(5):
        for comp in compositions_up_to(4, include_empty=False):

            def check(p=p, comp=comp):
                return _forms_agree(
                    "structural mismatch between methods",
                    reduce(p, comp),
                    reduce_direct(p, comp),
                )

            checks.append((f"reduce p={p} comp={_comp_str(comp)} methods-agree", check))
    return checks


def sums_suite_checks(max_n: int):
    _check_max_n(max_n)
    checks = []

    def oracle_check(route, F, arg, factors, start):
        # sum_{m=start..n} F(m) * prod H_{m-start}(comp)**e against route(F, arg)
        def check():
            direct = _direct_weighted_sum(F, factors, max_n, start)
            return _matches_direct(route(F, arg), direct, max_n)

        return check

    powers = (("sum-power", sum_power, 1), ("sum-power-shifted", sum_power_shifted, 0))
    for i, F in enumerate(_FIXED_WEIGHTS):
        for t in range(5):
            for name, route, start in powers:
                check = oracle_check(route, F, t, [((1,), t)], start)
                checks.append((f"{name} F#{i} t={t} oracle", check))
    product = [((1,), 1), ((2,), 1)]
    for i, F in enumerate(_FIXED_WEIGHTS[:2]):
        check = oracle_check(sum_product, F, [(1, 1), (2, 1)], product, 1)
        checks.append((f"sum-product F#{i} H*H(2) oracle", check))

    def product_consistency():
        one = Polynomial.constant(1)
        return _forms_agree(
            "H**2 routes disagree", sum_product(one, [(1, 2)]), sum_power(one, 2)
        )

    checks.append(("sum-product H^2 route consistency", product_consistency))

    def structured_check(kind, arg):
        def check():
            form = structured_form(kind, arg)
            F = arg if kind == "hn4" else Polynomial.monomial(arg)
            # for a pure power this is sum_power's form: both fold one combination
            factors = [(1, form.power), *((k, 1) for k in form.extra_orders)]
            return _forms_agree(
                "grouped and flat forms differ",
                structured_to_closed(form),
                sum_product(F, factors),
            )

        return check

    for kind in ("hn2", "hn3", "mixed"):
        for p in range(5):
            checks.append(
                (f"structured {kind} p={p} matches flat", structured_check(kind, p))
            )
    for i, F in enumerate(_FIXED_WEIGHTS):
        checks.append(
            (f"structured hn4 F#{i} matches flat", structured_check("hn4", F))
        )

    rng = random.Random(20240917)
    for case in range(20):
        degree = rng.randint(0, 3)
        F = Polynomial([rng.randint(-9, 9) for _ in range(degree)] + [rng.randint(1, 9)])
        t = rng.randint(0, 4)

        def check(F=F, t=t):
            report = structure_check(F, t)
            if report.passes:
                return True, ""
            bad = ", ".join(_comp_str(c) for c, _ in report.offending_terms)
            return False, f"offending terms: {bad}"

        checks.append((f"structure-check case {case} F={F.text('m')!r} t={t}", check))

    return checks


def run_verify(suite: str, max_n: int, echo=print) -> int:
    """Run one suite; print a line per identity; return a process exit code."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    checks = []
    if suite in ("reduce", "all"):
        checks += reduce_suite_checks(max_n)
    if suite in ("sums", "all"):
        checks += sums_suite_checks(max_n)
    if max_n == 0:
        echo("warning: --max-n 0 leaves the evaluation range empty")

    failures = 0
    for label, check in checks:
        try:
            ok, detail = check()
        except Exception as exc:  # a crash must surface as a failure, not silence
            ok, detail = False, f"error: {exc!r}"
        if ok:
            echo(f"PASS {label}")
        else:
            failures += 1
            echo(f"FAIL {label}: {detail}")
    echo(f"{len(checks) - failures}/{len(checks)} identities verified")
    return 0 if failures == 0 else 1


def run_table(p_max: int, weight_max: int, n: int) -> str:
    """CSV comparing the direct evaluator against the reduced closed form."""
    if p_max < 0 or weight_max < 0 or n < 0:
        raise ValueError("table bounds must be nonnegative")
    lines = ["p,composition,n,oracle_num,oracle_den,closed_num,closed_den,match"]
    for p in range(p_max + 1):
        for comp in compositions_up_to(weight_max):
            oracle = _pair(n, (-p,) + comp)  # in lowest terms, as a Fraction's
            closed = reduce(p, comp).eval(n).as_integer_ratio()
            match = "true" if oracle == closed else "false"
            lines.append(
                ",".join(
                    [str(p), ";".join(str(k) for k in comp), str(n)]
                    + [str(v) for v in (*oracle, *closed)]
                    + [match]
                )
            )
    return "\n".join(lines) + "\n"
